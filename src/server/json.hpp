#pragma once
// Minimal JSON for the serving protocol.
//
// The `lsml serve` wire format is newline-delimited JSON: one request
// object per line in, one response object per line out. This is the whole
// JSON implementation behind it — a small tagged value with a recursive-
// descent parser and a canonical serializer. Design constraints, in order:
//
//   1. Determinism: objects preserve insertion order and dump() emits a
//      single canonical spelling (shortest round-trip numbers via
//      std::to_chars, fixed escape set, no whitespace), so two servers
//      answering the same request produce byte-identical lines — the
//      property the concurrent-vs-serial bit-identity tests pin.
//   2. Robustness: parse() throws JsonError with context on malformed
//      input and never reads past the buffer; it is fed straight from the
//      socket.
//   3. No dependencies: the container ships no JSON library, and this
//      repo adds none.
//
// Payloads (PLA text, AIGER text) travel as ordinary JSON strings with
// embedded "\n" escapes, which is what keeps the framing one-line-per-
// message without a length prefix. Minterm rows (an `eval`'s "inputs" and
// "batches") can bypass the tree: the parser decodes them into a RowBlock.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lsml::server {

/// Malformed JSON text (or a type-mismatched accessor).
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// The string elements of captured request arrays, decoded by the parser
/// straight from the request bytes: every row's bytes back to back plus
/// one end offset per row, so a row costs its bytes and four more — no
/// Json node and no std::string. Rows are grouped by the array they came
/// from, in request order.
struct RowBlock {
  /// Set in a row end when the element was not a JSON string, and in a
  /// group end when the element was not a JSON array; such an element
  /// holds no bytes (or rows).
  static constexpr std::uint32_t kWrongType = 0x80000000u;

  std::string bytes;
  std::vector<std::uint32_t> row_ends;    ///< end of each row in `bytes`
  std::vector<std::uint32_t> group_ends;  ///< end of each group in rows

  [[nodiscard]] std::size_t rows() const { return row_ends.size(); }
  [[nodiscard]] std::size_t groups() const { return group_ends.size(); }
  [[nodiscard]] bool is_string(std::size_t r) const {
    return (row_ends[r] & kWrongType) == 0;
  }
  /// Row `r`'s decoded bytes (empty when it was not a string).
  [[nodiscard]] std::string_view row(std::size_t r) const {
    const std::uint32_t begin = r == 0 ? 0 : row_ends[r - 1] & ~kWrongType;
    return {bytes.data() + begin, (row_ends[r] & ~kWrongType) - begin};
  }
  [[nodiscard]] bool is_array(std::size_t g) const {
    return (group_ends[g] & kWrongType) == 0;
  }
  /// Group `g` holds rows [group_begin(g), group_end(g)).
  [[nodiscard]] std::size_t group_begin(std::size_t g) const {
    return g == 0 ? 0 : group_end(g - 1);
  }
  [[nodiscard]] std::size_t group_end(std::size_t g) const {
    return group_ends[g] & ~kWrongType;
  }
};

/// A top-level object member whose array value the parser decodes into
/// `block` instead of the tree: a plain capture's array is one group of
/// rows, a `nested` capture's array holds one group per element.
struct RowCapture {
  const char* key;
  bool nested;
  RowBlock* block;
};

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool v) : type_(Type::kBool), bool_(v) {}                    // NOLINT
  Json(std::int64_t v) : type_(Type::kInt), int_(v) {}              // NOLINT
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}               // NOLINT
  Json(std::uint32_t v) : Json(static_cast<std::int64_t>(v)) {}     // NOLINT
  Json(std::uint64_t v) : Json(static_cast<std::int64_t>(v)) {}     // NOLINT
  Json(double v) : type_(Type::kDouble), double_(v) {}              // NOLINT
  Json(std::string v) : type_(Type::kString), string_(std::move(v)) {}  // NOLINT
  Json(const char* v) : Json(std::string(v)) {}                     // NOLINT

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const;
  /// Any number as int64 (doubles are truncated toward zero).
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  // ------------------------------------------------------------- arrays
  void push_back(Json v);
  /// Pre-sizes an array's backing storage (no-op on other types).
  void reserve(std::size_t n);
  /// Appends a null element to an array and returns it (the parser's
  /// in-place construction path).
  Json& emplace_back();
  /// Retypes this value as a string holding the given bytes.
  void assign_string(const char* data, std::size_t n);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t i) const;

  // ------------------------------------------------------------ objects
  /// Appends (or replaces) a member; insertion order is dump() order.
  void set(std::string key, Json value);
  [[nodiscard]] bool has(const std::string& key) const;
  /// Member lookup; throws JsonError when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// Member lookup; nullptr when absent.
  [[nodiscard]] const Json* find(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;

  /// Canonical single-line serialization (no whitespace, shortest
  /// round-trip numbers, minimal escapes).
  [[nodiscard]] std::string dump() const;

  /// Parses exactly one JSON value; trailing non-whitespace throws.
  static Json parse(const std::string& text);
  /// Same grammar and errors, except that a member of the top-level object
  /// named by a capture, whose value is an array, keeps its elements out of
  /// the tree: string elements go to the capture's block as rows, other
  /// elements are parsed, dropped and marked kWrongType in the block.
  /// The member itself stays as an empty array, so find() still tells
  /// whether it was sent and with which type. A repeated member clears its
  /// block first, matching set()'s last-wins rule.
  static Json parse(const std::string& text,
                    std::span<const RowCapture> captures);

 private:
  void dump_to(std::string* out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace lsml::server
