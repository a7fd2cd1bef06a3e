#include "server/json.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lsml::server {

namespace {

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

void type_check(bool ok, const char* want) {
  if (!ok) {
    fail(std::string("JSON value is not ") + want);
  }
}

}  // namespace

bool Json::as_bool() const {
  type_check(type_ == Type::kBool, "a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  type_check(is_number(), "a number");
  return type_ == Type::kInt ? int_ : static_cast<std::int64_t>(double_);
}

double Json::as_double() const {
  type_check(is_number(), "a number");
  return type_ == Type::kInt ? static_cast<double>(int_) : double_;
}

const std::string& Json::as_string() const {
  type_check(type_ == Type::kString, "a string");
  return string_;
}

void Json::push_back(Json v) {
  type_check(type_ == Type::kArray, "an array");
  array_.push_back(std::move(v));
}

void Json::reserve(std::size_t n) {
  if (type_ == Type::kArray) {
    array_.reserve(n);
  }
}

Json& Json::emplace_back() {
  type_check(type_ == Type::kArray, "an array");
  return array_.emplace_back();
}

void Json::assign_string(const char* data, std::size_t n) {
  array_.clear();
  object_.clear();
  type_ = Type::kString;
  string_.assign(data, n);
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) {
    return array_.size();
  }
  if (type_ == Type::kObject) {
    return object_.size();
  }
  fail("JSON value is not a container");
}

const Json& Json::at(std::size_t i) const {
  type_check(type_ == Type::kArray, "an array");
  if (i >= array_.size()) {
    fail("JSON array index out of range");
  }
  return array_[i];
}

void Json::set(std::string key, Json value) {
  type_check(type_ == Type::kObject, "an object");
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

bool Json::has(const std::string& key) const { return find(key) != nullptr; }

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    fail("missing JSON member '" + key + "'");
  }
  return *v;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& member : object_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  type_check(type_ == Type::kObject, "an object");
  return object_;
}

// --------------------------------------------------------------- dumping

namespace {

void dump_string(const std::string& s, std::string* out) {
  out->push_back('"');
  // Bulk-append runs that need no escaping; payload strings (minterm rows,
  // output bit strings, PLA text between newlines) are almost entirely
  // clean runs.
  std::size_t i = 0;
  while (i < s.size()) {
    std::size_t run = i;
    while (run < s.size()) {
      const auto u = static_cast<unsigned char>(s[run]);
      if (u < 0x20 || u == '"' || u == '\\') {
        break;
      }
      ++run;
    }
    out->append(s, i, run - i);
    if (run >= s.size()) {
      break;
    }
    i = run;
    const char c = s[i++];
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void Json::dump_to(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, int_);
      out->append(buf, res.ptr);
      return;
    }
    case Type::kDouble: {
      if (!std::isfinite(double_)) {
        // JSON has no Inf/NaN; the protocol never produces them, but a
        // defensive spelling beats emitting an unparseable token.
        *out += "null";
        return;
      }
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof buf, double_);
      out->append(buf, res.ptr);
      return;
    }
    case Type::kString:
      dump_string(string_, out);
      return;
    case Type::kArray: {
      out->push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        array_[i].dump_to(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        dump_string(object_[i].first, out);
        out->push_back(':');
        object_[i].second.dump_to(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

// --------------------------------------------------------------- parsing

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::span<const RowCapture> captures)
      : text_(text), captures_(captures) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail_at("trailing characters after JSON value");
    }
    return v;
  }

 private:
  [[noreturn]] void fail_at(const std::string& what) const {
    fail(what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail_at("unexpected end of JSON text");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_at(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    // Recursion is bounded so a hostile "[[[[..." request line becomes a
    // JsonError (one failed request), never a stack overflow (one dead
    // daemon). 64 levels is far beyond anything the protocol nests.
    if (depth_ >= 64) {
      fail_at("JSON nesting deeper than 64 levels");
    }
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': {
        ++depth_;
        Json v = parse_object();
        --depth_;
        return v;
      }
      case '[': {
        ++depth_;
        Json v = parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Json(true);
        }
        fail_at("bad literal");
      case 'f':
        if (consume_literal("false")) {
          return Json(false);
        }
        fail_at("bad literal");
      case 'n':
        if (consume_literal("null")) {
          return Json();
        }
        fail_at("bad literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      const RowCapture* capture = depth_ == 1 ? find_capture(key) : nullptr;
      if (capture != nullptr) {
        skip_ws();  // as parse_value() would; peek() fails the same way
      }
      if (capture != nullptr && peek() == '[') {
        capture_rows(*capture);
        obj.set(std::move(key), Json::array());
      } else {
        obj.set(std::move(key), parse_value());
      }
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        return obj;
      }
      if (c != ',') {
        fail_at("expected ',' or '}' in object");
      }
    }
  }

  [[nodiscard]] const RowCapture* find_capture(const std::string& key) const {
    for (const RowCapture& capture : captures_) {
      if (key == capture.key) {
        return &capture;
      }
    }
    return nullptr;
  }

  /// parse_value() of a captured member's array: the grammar, error texts
  /// and depth accounting of parse_array(), but string elements are
  /// appended to the block instead of built as Json values.
  void capture_rows(const RowCapture& capture) {
    RowBlock& block = *capture.block;
    block.bytes.clear();
    block.row_ends.clear();
    block.group_ends.clear();
    ++depth_;
    if (!capture.nested) {
      capture_group(&block);
    } else {
      expect('[');
      skip_ws();
      if (peek() == ']') {
        ++pos_;
      } else {
        while (true) {
          skip_ws();
          if (peek() == '[') {
            ++depth_;  // as parse_value() would; depth 3 cannot hit its cap
            capture_group(&block);
            --depth_;
          } else {
            parse_value();
            end_entry(&block.group_ends, block.rows(), true);
          }
          if (next_in_array()) {
            break;
          }
        }
      }
    }
    --depth_;
  }

  /// One array of rows (pos_ at its '[') as the block's next group.
  void capture_group(RowBlock* block) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
    } else {
      while (true) {
        skip_ws();
        if (peek() == '"') {
          append_string(&block->bytes);
          end_entry(&block->row_ends, block->bytes.size(), false);
        } else {
          parse_value();
          end_entry(&block->row_ends, block->bytes.size(), true);
        }
        if (next_in_array()) {
          break;
        }
      }
    }
    end_entry(&block->group_ends, block->rows(), false);
  }

  /// Records one row or group end. Offsets are 31-bit (the top bit is
  /// RowBlock::kWrongType), so a block past 2 GiB is refused, not wrapped.
  void end_entry(std::vector<std::uint32_t>* ends, std::size_t end,
                 bool wrong_type) {
    constexpr std::uint32_t kFlag = RowBlock::kWrongType;
    if (end >= kFlag || ends->size() >= kFlag) {
      fail_at("JSON rows exceed 2 GiB");
    }
    ends->push_back(static_cast<std::uint32_t>(end) |
                    (wrong_type ? kFlag : 0u));
  }

  /// After an array element: consumes ',' (false) or the closing ']'
  /// (true), exactly as parse_array() does.
  bool next_in_array() {
    skip_ws();
    const char c = peek();
    ++pos_;
    if (c == ']') {
      return true;
    }
    if (c != ',') {
      fail_at("expected ',' or ']' in array");
    }
    return false;
  }

  /// Counts the elements of the array starting at pos_ (first element, '['
  /// already consumed) by scanning ahead to the matching ']'. One linear
  /// rescan buys an exact vector reserve — for long string arrays
  /// (hundreds of rows) that removes every reallocation move of the
  /// ~100-byte Json elements, which costs more than the scan.
  std::size_t count_array_elements() const {
    std::size_t count = 1;
    std::size_t depth = 0;
    bool in_string = false;
    for (std::size_t i = pos_; i < text_.size(); ++i) {
      const char c = text_[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '[' || c == '{') {
        ++depth;
      } else if (c == ']' || c == '}') {
        if (depth == 0) {
          break;
        }
        --depth;
      } else if (c == ',' && depth == 0) {
        ++count;
      }
    }
    return count;
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    arr.reserve(count_array_elements());
    while (true) {
      skip_ws();
      if (peek() == '"') {
        // Arrays of strings (rows that are not captured): build the
        // string directly inside the array slot instead of moving a
        // ~100-byte Json through return values and push_back.
        parse_string_into(arr.emplace_back());
      } else {
        arr.push_back(parse_value());
      }
      if (next_in_array()) {
        return arr;
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail_at("truncated \\u escape");
    }
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail_at("bad \\u escape digit");
      }
    }
    return value;
  }

  void append_utf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  /// Index of the next byte that ends a plain run: a quote, a backslash,
  /// or a control byte. Scanning a whole span and bulk-appending it beats
  /// byte-at-a-time push_back — request lines are dominated by long clean
  /// strings (minterm rows, PLA payloads).
  std::size_t scan_plain_run() const {
    const char* data = text_.data();
    std::size_t i = pos_;
    const std::size_t n = text_.size();
    // Eight bytes per step: flag bytes equal to '"' or '\\' (zero after
    // the xor) or below 0x20. A borrow can only flag bytes above a true
    // hit, so the lowest flag is exact.
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t x = 0;
      std::memcpy(&x, data + i, 8);
      const std::uint64_t quote = x ^ (kOnes * '"');
      const std::uint64_t slash = x ^ (kOnes * '\\');
      const std::uint64_t hits = (((quote - kOnes) & ~quote) |
                                  ((slash - kOnes) & ~slash) |
                                  ((x - kOnes * 0x20) & ~x)) &
                                 kHighs;
      if (hits != 0) {
        return i + static_cast<std::size_t>(std::countr_zero(hits)) / 8;
      }
    }
    while (i < n) {
      const unsigned char c = static_cast<unsigned char>(data[i]);
      if (c == '"' || c == '\\' || c < 0x20) {
        break;
      }
      ++i;
    }
    return i;
  }

  std::string parse_string() {
    std::string out;
    append_string(&out);
    return out;
  }

  /// Appends the decoded string at pos_ (its opening quote) to `out`.
  void append_string(std::string* out) {
    expect('"');
    // Fast path: the whole string is one clean run (no escapes).
    const std::size_t run = scan_plain_run();
    if (run < text_.size() && text_[run] == '"') {
      out->append(text_, pos_, run - pos_);
      pos_ = run + 1;
      return;
    }
    parse_string_tail(out);
  }

  /// Parses a string element straight into `out` — the fast path assigns
  /// the bytes in place, with no intermediate std::string or Json moves.
  void parse_string_into(Json& out) {
    expect('"');
    const std::size_t run = scan_plain_run();
    if (run < text_.size() && text_[run] == '"') {
      out.assign_string(text_.data() + pos_, run - pos_);
      pos_ = run + 1;
      return;
    }
    std::string tail;
    parse_string_tail(&tail);
    out = Json(std::move(tail));
  }

  /// Escape-handling slow path, appending to `out`; pos_ sits just past
  /// the opening quote.
  void parse_string_tail(std::string* out) {
    while (true) {
      const std::size_t run = scan_plain_run();
      out->append(text_, pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) {
        fail_at("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail_at("raw control character in string");
      }
      if (pos_ >= text_.size()) {
        fail_at("truncated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // UTF-16 surrogate pair.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail_at("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) {
              fail_at("bad UTF-16 low surrogate");
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail_at("unpaired UTF-16 surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          fail_at("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail_at("bad number");
    }
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      fail_at("leading zero in number");
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      std::int64_t v = 0;
      const auto res = std::from_chars(first, last, v);
      if (res.ec == std::errc() && res.ptr == last) {
        return Json(v);
      }
      // Out-of-range integer literal: fall through to double.
    }
    // strtod needs a terminated buffer; numbers are rare enough in the
    // protocol that the copy does not matter.
    const std::string token(first, last);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail_at("bad number '" + token + "'");
    }
    return Json(d);
  }

  const std::string& text_;
  std::span<const RowCapture> captures_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text, {}).parse_document();
}

Json Json::parse(const std::string& text,
                 std::span<const RowCapture> captures) {
  return Parser(text, captures).parse_document();
}

}  // namespace lsml::server
