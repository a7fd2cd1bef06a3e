// Tests for src/server: the JSON layer, the Service protocol core, and the
// TCP daemon + client. The headline properties pinned here are the ones
// the serving layer sells: protocol errors never kill the daemon, deadlines
// degrade instead of stalling, repeated requests hit the model caches, and
// N concurrent clients get byte-identical responses to a serial replay
// (this file runs under TSan in CI, so the identity check doubles as the
// data-race probe).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aig/aig.hpp"
#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "aig/sim_engine.hpp"
#include "core/rng.hpp"
#include "obs/trace.hpp"
#include "sat/cec.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "suite/result_cache.hpp"
#include "synth/script.hpp"

namespace lsml {
namespace {

using server::Client;
using server::Deadline;
using server::Json;
using server::RowBlock;
using server::RowCapture;
using server::Server;
using server::ServerOptions;
using server::Service;
using server::ServiceOptions;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "lsml_server_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// PLA text for a full truth table of `fn` over `num_inputs` variables.
std::string pla_for(std::size_t num_inputs,
                    const std::function<bool(std::uint32_t)>& fn) {
  std::ostringstream os;
  os << ".i " << num_inputs << "\n.o 1\n";
  for (std::uint32_t row = 0; row < (1u << num_inputs); ++row) {
    for (std::size_t bit = 0; bit < num_inputs; ++bit) {
      os << (((row >> bit) & 1u) != 0 ? '1' : '0');
    }
    os << ' ' << (fn(row) ? '1' : '0') << '\n';
  }
  os << ".e\n";
  return os.str();
}

std::string aag_text(const aig::Aig& g) {
  std::ostringstream os;
  aig::write_aag(g, os);
  return os.str();
}

aig::Aig or2_circuit() {
  aig::Aig g(2);
  g.add_output(g.or2(g.pi(0), g.pi(1)));
  return g;
}

aig::Aig and2_circuit() {
  aig::Aig g(2);
  g.add_output(g.and2(g.pi(0), g.pi(1)));
  return g;
}

Json handle(Service& service, const Json& request) {
  return Json::parse(service.handle_line(request.dump()));
}

Json make_request(const char* type) {
  Json r = Json::object();
  r.set("type", type);
  return r;
}

Json learn_request(const std::string& pla, const std::string& learner = "dt") {
  Json r = make_request("learn");
  r.set("learner", learner);
  r.set("pla", pla);
  return r;
}

/// A deadline whose clock started `elapsed_ms` ago — how tests make expiry
/// deterministic without sleeping.
std::chrono::steady_clock::time_point received_ago(std::int64_t elapsed_ms) {
  return std::chrono::steady_clock::now() -
         std::chrono::milliseconds(elapsed_ms);
}

// ===================================================================== JSON

TEST(JsonTest, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj.set("s", "line1\nline2\t\"quoted\"\\");
  obj.set("i", std::int64_t{-42});
  obj.set("d", 0.25);
  obj.set("b", true);
  obj.set("n", Json());
  Json arr = Json::array();
  arr.push_back(Json("x"));
  arr.push_back(Json(std::int64_t{7}));
  obj.set("a", std::move(arr));

  const std::string text = obj.dump();
  const Json back = Json::parse(text);
  EXPECT_EQ(back.at("s").as_string(), "line1\nline2\t\"quoted\"\\");
  EXPECT_EQ(back.at("i").as_int(), -42);
  EXPECT_DOUBLE_EQ(back.at("d").as_double(), 0.25);
  EXPECT_TRUE(back.at("b").as_bool());
  EXPECT_TRUE(back.at("n").is_null());
  EXPECT_EQ(back.at("a").size(), 2u);
  EXPECT_EQ(back.at("a").at(0).as_string(), "x");
  // Canonical: dump(parse(dump(x))) == dump(x).
  EXPECT_EQ(back.dump(), text);
}

TEST(JsonTest, PreservesMemberOrder) {
  Json obj = Json::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2}");
}

TEST(JsonTest, ParsesEscapesAndUnicode) {
  const Json v = Json::parse(R"({"k":"aA\né 😀"})");
  EXPECT_EQ(v.at("k").as_string(), "aA\n\xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(JsonTest, StringScanStopsAtEveryOffset) {
  // Strings are scanned eight bytes at a time; a byte that ends the plain
  // run must be found at every offset within and across those steps.
  for (std::size_t len = 0; len < 20; ++len) {
    for (std::size_t at = 0; at <= len; ++at) {
      for (const char special : {'"', '\\', '\n', '\x1f', '\xc3'}) {
        std::string text(len, 'a');
        text.insert(at, 1, special);
        ASSERT_EQ(Json::parse(Json(text).dump()).as_string(), text);
      }
      std::string raw(len + 2, '0');
      raw.front() = '"';
      raw.back() = '"';
      raw[1 + at] = '\x01';
      if (at < len) {
        try {
          (void)Json::parse(raw);
          ADD_FAILURE() << "raw control byte at " << at << " accepted";
        } catch (const server::JsonError& e) {
          EXPECT_EQ(std::string(e.what()),
                    "raw control character in string at byte " +
                        std::to_string(at + 2));
        }
      }
    }
  }
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), server::JsonError);
  EXPECT_THROW(Json::parse("{"), server::JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), server::JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), server::JsonError);
  EXPECT_THROW(Json::parse("[1,2"), server::JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), server::JsonError);
  EXPECT_THROW(Json::parse("truth"), server::JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), server::JsonError);
  EXPECT_THROW(Json::parse("\"bad \\q escape\""), server::JsonError);
  EXPECT_THROW(Json::parse("\"ctrl \x01\""), server::JsonError);
  EXPECT_THROW(Json::parse("01"), server::JsonError);
}

TEST(JsonTest, NumbersKeepIntegerness) {
  EXPECT_EQ(Json::parse("9007199254740993").as_int(), 9007199254740993LL);
  EXPECT_DOUBLE_EQ(Json::parse("1.5e3").as_double(), 1500.0);
  // Shortest-round-trip doubles re-parse bit-exactly.
  const double x = 0.1234567890123456789;
  EXPECT_EQ(Json(x).dump(), Json::parse(Json(x).dump()).dump());
}

TEST(JsonTest, ModelIdRoundTrip) {
  const std::string id = server::model_id_from_hash(0x0123456789abcdefULL);
  EXPECT_EQ(id, "m-0123456789abcdef");
  std::uint64_t hash = 0;
  EXPECT_TRUE(server::model_hash_from_id(id, &hash));
  EXPECT_EQ(hash, 0x0123456789abcdefULL);
  EXPECT_FALSE(server::model_hash_from_id("m-123", &hash));
  EXPECT_FALSE(server::model_hash_from_id("x-0123456789abcdef", &hash));
  EXPECT_FALSE(server::model_hash_from_id("m-0123456789abcdeg", &hash));
}

// ================================================== Service: protocol errors

TEST(ServiceTest, MalformedRequestsAreErrorsNotCrashes) {
  Service service;
  for (const char* line : {
           "not json at all",
           "{\"type\":\"learn\"",   // truncated JSON
           "[1,2,3]",               // not an object
           "{}",                    // no type
           "{\"type\":42}",         // type not a string
           "{\"type\":\"nope\"}",   // unknown type
           "{\"type\":\"learn\"}",  // missing fields
           "{\"type\":\"eval\",\"model\":\"bogus\"}",
           "{\"type\":\"synth\",\"aag\":\"not an aiger file\"}",
           "{\"type\":\"cec\",\"a\":\"x\",\"b\":\"y\"}",
       }) {
    const Json response = Json::parse(service.handle_line(line));
    EXPECT_FALSE(response.at("ok").as_bool()) << line;
    EXPECT_FALSE(response.at("error").as_string().empty()) << line;
  }
  EXPECT_EQ(service.stats().errors.load(), 10u);
  // The service still works afterwards.
  EXPECT_TRUE(handle(service, make_request("ping")).at("ok").as_bool());
}

TEST(ServiceTest, OversizedPlaHeaderIsAnErrorNotAnAllocation) {
  Service service;
  for (const char* pla : {".i 100000000\n.o 1\n.e\n",
                          ".i 4000000000\n.o 1\n.e\n"}) {
    const Json response = handle(service, learn_request(pla));
    EXPECT_FALSE(response.at("ok").as_bool()) << pla;
    EXPECT_NE(response.at("error").as_string().find("exceeds the limit"),
              std::string::npos)
        << response.dump();
  }
  EXPECT_TRUE(handle(service, make_request("ping")).at("ok").as_bool());
}

TEST(ServiceTest, DeeplyNestedJsonIsAnErrorNotAStackOverflow) {
  Service service;
  // 100k open brackets would overflow the stack in an unbounded
  // recursive-descent parser; the depth cap turns it into one failed
  // request.
  const Json response =
      Json::parse(service.handle_line(std::string(100000, '[')));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("nesting"),
            std::string::npos);
  EXPECT_TRUE(handle(service, make_request("ping")).at("ok").as_bool());
}

TEST(ServiceTest, ConcurrentIdenticalLearnsFitOnce) {
  // Single-flight: on a cold service, N threads asking for the same model
  // elect one leader; everyone gets the same bytes and exactly one refit
  // happens no matter how the threads interleave.
  Service service;
  const std::string line =
      learn_request(pla_for(4, [](std::uint32_t r) { return r % 6 == 1; }))
          .dump();
  constexpr int kThreads = 16;
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { responses[t] = service.handle_line(line); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(responses[t], responses[0]);
    EXPECT_TRUE(Json::parse(responses[t]).at("ok").as_bool());
  }
  EXPECT_EQ(service.stats().learns.load(), 1u);
}

TEST(ServiceTest, EchoesRequestId) {
  Service service;
  Json request = make_request("ping");
  request.set("id", std::int64_t{17});
  Json response = handle(service, request);
  EXPECT_EQ(response.at("id").as_int(), 17);
  // Ids are echoed on errors too, and may be strings.
  Json bad = make_request("nope");
  bad.set("id", "abc");
  response = handle(service, bad);
  EXPECT_EQ(response.at("id").as_string(), "abc");
  EXPECT_FALSE(response.at("ok").as_bool());
}

TEST(ServiceTest, LearnValidation) {
  Service service;
  const std::string pla = pla_for(2, [](std::uint32_t r) { return r != 0; });

  Json request = learn_request(pla, "no-such-learner");
  EXPECT_NE(handle(service, request).at("error").as_string().find(
                "no learner named"),
            std::string::npos);

  request = learn_request(".i 2\n.o 1\ngarbage\n.e\n");
  EXPECT_NE(handle(service, request).at("error").as_string().find("bad PLA"),
            std::string::npos);

  request = learn_request(pla);
  request.set("valid_pla",
              pla_for(3, [](std::uint32_t r) { return r != 0; }));
  EXPECT_NE(handle(service, request).at("error").as_string().find(
                "input count differs"),
            std::string::npos);

  request = learn_request(pla);
  request.set("seed", std::int64_t{-1});
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());
}

TEST(ServiceTest, EvalValidation) {
  Service service;
  const Json learned = handle(
      service,
      learn_request(pla_for(2, [](std::uint32_t r) { return r != 0; })));
  ASSERT_TRUE(learned.at("ok").as_bool());
  const std::string id = learned.at("model").as_string();

  Json request = make_request("eval");
  request.set("model", id);
  EXPECT_NE(handle(service, request).at("error").as_string().find("inputs"),
            std::string::npos);

  request.set("inputs", Json::array());
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());

  Json wrong_len = Json::array();
  wrong_len.push_back(Json("101"));
  request.set("inputs", std::move(wrong_len));
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());

  Json bad_char = Json::array();
  bad_char.push_back(Json("1x"));
  request.set("inputs", std::move(bad_char));
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());

  Json unknown = make_request("eval");
  unknown.set("model", "m-00000000000000ff");
  Json inputs = Json::array();
  inputs.push_back(Json("11"));
  unknown.set("inputs", std::move(inputs));
  EXPECT_NE(handle(service, unknown).at("error").as_string().find(
                "unknown model"),
            std::string::npos);
}

TEST(ServiceTest, EvalRowCapIsEnforced) {
  ServiceOptions options;
  options.max_eval_rows = 3;
  Service service(options);
  const Json learned = handle(
      service,
      learn_request(pla_for(2, [](std::uint32_t r) { return r == 3; })));
  Json request = make_request("eval");
  request.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(Json("11"));
  }
  request.set("inputs", std::move(inputs));
  EXPECT_EQ(handle(service, request).at("error").as_string(),
            "request exceeds the per-request row cap (3 rows summed over "
            "batches)");

  // The cap is checked on the row count, ahead of the rows' contents.
  request.set("inputs", Json::array());
  std::string line = request.dump();
  line.replace(line.find("[]"), 2, "[\"11\",1,\"x\",[]]");
  EXPECT_NE(Json::parse(service.handle_line(line))
                .at("error")
                .as_string()
                .find("row cap"),
            std::string::npos);

  // The cap sums over "batches" too: 2 + 2 rows against a cap of 3.
  Json batched = make_request("eval");
  batched.set("model", learned.at("model").as_string());
  Json batches = Json::array();
  for (int b = 0; b < 2; ++b) {
    Json batch = Json::array();
    batch.push_back(Json("11"));
    batch.push_back(Json("00"));
    batches.push_back(std::move(batch));
  }
  batched.set("batches", std::move(batches));
  EXPECT_NE(handle(service, batched).at("error").as_string().find("row cap"),
            std::string::npos);
}

TEST(ServiceTest, BatchesValidation) {
  Service service;
  const Json learned = handle(
      service,
      learn_request(pla_for(2, [](std::uint32_t r) { return r != 0; })));
  const std::string id = learned.at("model").as_string();

  // 'inputs' and 'batches' are mutually exclusive.
  Json both = make_request("eval");
  both.set("model", id);
  Json inputs = Json::array();
  inputs.push_back(Json("11"));
  both.set("inputs", std::move(inputs));
  Json batches = Json::array();
  Json batch = Json::array();
  batch.push_back(Json("11"));
  batches.push_back(std::move(batch));
  both.set("batches", std::move(batches));
  EXPECT_NE(handle(service, both).at("error").as_string().find("exactly one"),
            std::string::npos);

  Json empty = make_request("eval");
  empty.set("model", id);
  empty.set("batches", Json::array());
  EXPECT_FALSE(handle(service, empty).at("ok").as_bool());

  Json empty_batch = make_request("eval");
  empty_batch.set("model", id);
  Json holds_empty = Json::array();
  holds_empty.push_back(Json::array());
  empty_batch.set("batches", std::move(holds_empty));
  EXPECT_FALSE(handle(service, empty_batch).at("ok").as_bool());
}

// ============================================ eval decoding against an oracle

// The per-row eval path that packed decoding replaced, kept here as the
// oracle: the whole request becomes a Json tree, the PI columns fill one
// bit per row and column, and a SimEngine sweep of the model's circuit
// gives the outputs. Its error texts are the service's.

void parse_rows_into_columns(const Json& rows_json, std::size_t num_pis,
                             std::size_t offset,
                             std::vector<core::BitVec>* columns,
                             const std::string& where) {
  const std::size_t rows = rows_json.size();
  for (std::size_t row = 0; row < rows; ++row) {
    const Json& line = rows_json.at(row);
    if (!line.is_string() || line.as_string().size() != num_pis) {
      throw std::runtime_error(where + "[" + std::to_string(row) +
                               "] must be a " + std::to_string(num_pis) +
                               "-character 0/1 string");
    }
    const std::string& bits = line.as_string();
    for (std::size_t col = 0; col < num_pis; ++col) {
      if (bits[col] == '1') {
        (*columns)[col].set(offset + row, true);
      } else if (bits[col] != '0') {
        throw std::runtime_error(where + "[" + std::to_string(row) +
                                 "] holds a character other than 0/1");
      }
    }
  }
}

std::string oracle_bits(const core::BitVec& bits, std::size_t offset,
                        std::size_t rows) {
  std::string text(rows, '0');
  for (std::size_t row = 0; row < rows; ++row) {
    if (bits.get(offset + row)) {
      text[row] = '1';
    }
  }
  return text;
}

Json oracle_eval(const Json& request,
                 const std::map<std::string, aig::Aig>& models) {
  const Json* model_field = request.find("model");
  if (model_field == nullptr || !model_field->is_string()) {
    throw std::runtime_error("request needs a string 'model' field");
  }
  const std::string& id = model_field->as_string();
  const auto model = models.find(id);
  if (model == models.end()) {
    throw std::runtime_error("unknown model '" + id + "' (learn it first)");
  }
  const Json* inputs = request.find("inputs");
  const Json* batches = request.find("batches");
  if ((inputs == nullptr) == (batches == nullptr)) {
    throw std::runtime_error(
        "request needs exactly one of 'inputs' (an array of minterm "
        "strings) or 'batches' (an array of such arrays)");
  }
  std::vector<const Json*> groups;
  if (inputs != nullptr) {
    if (!inputs->is_array() || inputs->size() == 0) {
      throw std::runtime_error("'inputs' must be a non-empty array");
    }
    groups.push_back(inputs);
  } else {
    if (!batches->is_array() || batches->size() == 0) {
      throw std::runtime_error("'batches' must be a non-empty array");
    }
    for (std::size_t b = 0; b < batches->size(); ++b) {
      const Json& group = batches->at(b);
      if (!group.is_array() || group.size() == 0) {
        throw std::runtime_error(
            "batches[" + std::to_string(b) +
            "] must be a non-empty array of minterm strings");
      }
      groups.push_back(&group);
    }
  }
  std::size_t total_rows = 0;
  for (const Json* group : groups) {
    total_rows += group->size();
  }
  const aig::Aig& circuit = model->second;
  const std::size_t num_pis = circuit.num_pis();
  std::vector<core::BitVec> columns(num_pis, core::BitVec(total_rows));
  std::size_t offset = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::string where =
        inputs != nullptr ? "inputs" : "batches[" + std::to_string(g) + "]";
    parse_rows_into_columns(*groups[g], num_pis, offset, &columns, where);
    offset += groups[g]->size();
  }
  std::vector<const core::BitVec*> ptrs;
  for (const core::BitVec& column : columns) {
    ptrs.push_back(&column);
  }
  aig::SimEngine engine(circuit);
  engine.run(ptrs);
  std::vector<core::BitVec> outputs;
  engine.outputs_into(&outputs);

  Json r = Json::object();
  if (const Json* echo = request.find("id")) {
    r.set("id", *echo);
  }
  r.set("ok", true);
  r.set("type", "eval");
  r.set("model", id);
  r.set("rows", static_cast<std::int64_t>(total_rows));
  if (inputs != nullptr) {
    Json out = Json::array();
    for (const core::BitVec& bits : outputs) {
      out.push_back(Json(oracle_bits(bits, 0, total_rows)));
    }
    r.set("outputs", std::move(out));
  } else {
    Json out_batches = Json::array();
    offset = 0;
    for (const Json* group : groups) {
      Json entry = Json::object();
      entry.set("rows", static_cast<std::int64_t>(group->size()));
      Json out = Json::array();
      for (const core::BitVec& bits : outputs) {
        out.push_back(Json(oracle_bits(bits, offset, group->size())));
      }
      entry.set("outputs", std::move(out));
      out_batches.push_back(std::move(entry));
      offset += group->size();
    }
    r.set("batches", std::move(out_batches));
  }
  return r;
}

/// The response line the per-row path gave for an eval request line.
std::string oracle_response(const std::string& line,
                            const std::map<std::string, aig::Aig>& models) {
  Json request;
  std::string error;
  try {
    request = Json::parse(line);
    if (!request.is_object()) {
      throw std::runtime_error("request must be a JSON object");
    }
    return oracle_eval(request, models).dump();
  } catch (const std::exception& e) {
    error = e.what();
  }
  Json r = Json::object();
  if (request.is_object()) {
    if (const Json* echo = request.find("id")) {
      r.set("id", *echo);
    }
  }
  r.set("ok", false);
  r.set("type", "error");
  r.set("error", error);
  return r.dump();
}

/// Seeded eval request lines written byte by byte, so they carry what a
/// Json::dump never does: whitespace between tokens, escaped row
/// characters, repeated members, and malformed rows.
class EvalLineWriter {
 public:
  explicit EvalLineWriter(std::uint64_t seed) : rng_(seed) {}

  std::string line(const std::string& model, std::size_t width) {
    width_ = width;
    fault_ = rng_.below(16);
    std::string members;
    const auto add = [&](const std::string& key, const std::string& value) {
      if (!members.empty()) {
        members += ws() + ",";
      }
      members += ws() + "\"" + key + "\"" + ws() + ":" + ws() + value;
    };
    if (rng_.below(4) == 0) {
      add("id", std::to_string(rng_.below(1000)));
    }
    add("type", "\"eval\"");
    add("model", fault_ == 1 ? "\"m-00000000000000ff\"" : "\"" + model + "\"");
    const bool batched = rng_.below(2) == 0;
    const std::string key = batched ? "batches" : "inputs";
    if (fault_ == 2) {
      // A repeated member: the last one wins, whatever the first held.
      add(key, rng_.below(2) == 0 ? "7" : batched ? batches() : rows(5));
    }
    if (fault_ != 3) {
      add(key, batched ? batches() : rows(1 + rng_.below(150)));
    }
    if (fault_ == 4) {
      add(batched ? "inputs" : "batches", rows(1 + rng_.below(3)));
    }
    if (fault_ == 5) {
      add(key, rng_.below(2) == 0 ? "7" : "\"01\"");
    }
    std::string text = ws() + "{" + members + ws() + "}" + ws();
    if (fault_ == 6) {
      text.resize(rng_.below(text.size()));  // a JSON error at some byte
    }
    return text;
  }

 private:
  std::string ws() {
    static const char* const kSpaces[] = {"", "", "", " ", "\t", " \r "};
    return kSpaces[rng_.below(std::size(kSpaces))];
  }

  std::string row_text() {
    std::size_t width = width_;
    if (fault_ == 7 && rng_.below(40) == 0) {
      width = rng_.below(2) == 0 ? width + 1 : width - 1;  // wrong length
    }
    std::string text = "\"";
    for (std::size_t c = 0; c < width; ++c) {
      const bool one = rng_.below(2) == 0;
      if (fault_ == 8 && rng_.below(200) == 0) {
        text += rng_.below(2) == 0 ? "2" : "\\u0041";  // not 0/1
      } else if (rng_.below(30) == 0) {
        text += one ? "\\u0031" : "\\u0030";  // escaped, still 0/1
      } else {
        text += one ? '1' : '0';
      }
    }
    return text + "\"";
  }

  std::string element() {
    if (fault_ == 9 && rng_.below(40) == 0) {
      static const char* const kOthers[] = {"7", "null", "true", "[\"0\"]",
                                            "{\"a\":1}"};
      return kOthers[rng_.below(std::size(kOthers))];
    }
    return row_text();
  }

  std::string rows(std::size_t n) {
    if (fault_ == 10 && rng_.below(4) == 0) {
      return "[" + ws() + "]";
    }
    std::string text = "[";
    for (std::size_t r = 0; r < n; ++r) {
      text += ws() + element() + ws() + (r + 1 < n ? "," : "");
    }
    return text + "]";
  }

  std::string batches() {
    const std::size_t n = fault_ == 11 && rng_.below(4) == 0
                              ? 0
                              : 1 + rng_.below(5);
    std::string text = "[";
    for (std::size_t b = 0; b < n; ++b) {
      std::string batch = rows(1 + rng_.below(100));  // ragged
      if (fault_ == 12 && rng_.below(3) == 0) {
        batch = rng_.below(2) == 0 ? "\"01\"" : "[]";
      }
      text += ws() + batch + ws() + (b + 1 < n ? "," : "");
    }
    return text + "]";
  }

  core::Rng rng_;
  std::size_t width_ = 0;
  std::uint64_t fault_ = 0;
};

TEST(ServiceTest, DecodeMintermRowsMatchesPerBitFill) {
  core::Rng rng(21);
  for (std::size_t width = 0; width <= 70; ++width) {
    for (const std::size_t rows : {1, 63, 64, 65, 200}) {
      Json request = Json::object();
      Json inputs = Json::array();
      for (std::size_t r = 0; r < rows; ++r) {
        std::string row(width, '0');
        for (char& c : row) {
          c = (rng.next() & 1u) != 0 ? '1' : '0';
        }
        inputs.push_back(Json(std::move(row)));
      }
      request.set("inputs", std::move(inputs));
      const std::string line = request.dump();
      RowBlock block;
      const RowCapture capture[] = {{"inputs", false, &block}};
      Json::parse(line, capture);
      std::vector<core::BitVec> columns;
      ASSERT_EQ(server::decode_minterm_rows(block, width, &columns), rows);
      std::vector<core::BitVec> expected(width, core::BitVec(rows));
      parse_rows_into_columns(request.at("inputs"), width, 0, &expected,
                              "inputs");
      ASSERT_EQ(columns, expected) << width << " x " << rows;

      // The first bad row, in row order, is the one reported.
      if (width > 0) {
        const std::size_t bad = rng.below(rows);
        std::string broken = line;
        const std::size_t at = broken.find('"', 11 + bad * (width + 3)) + 1;
        broken[at + rng.below(width)] = '2';
        Json::parse(broken, capture);
        EXPECT_EQ(server::decode_minterm_rows(block, width, &columns), bad);
      }
    }
  }
}

TEST(ServiceTest, EvalResponsesMatchTheJsonTreeOracle) {
  ServiceOptions options;
  options.cache_dir = temp_dir("eval_oracle");
  Service service(options);
  const suite::ResultCache cache(options.cache_dir);
  std::map<std::string, aig::Aig> models;
  std::vector<std::pair<std::string, std::size_t>> widths;
  core::Rng rng(2021);
  for (const std::size_t width : {1, 2, 7, 8, 9, 31, 64, 65, 70}) {
    std::string pla = ".i " + std::to_string(width) + "\n.o 1\n";
    for (int r = 0; r < 96; ++r) {
      std::string row(width, '0');
      for (char& c : row) {
        c = (rng.next() & 1u) != 0 ? '1' : '0';
      }
      const bool label = (row[0] == '1') != (row[width - 1] == '1') ||
                         row[width / 2] == '1';
      pla += row + (label ? " 1\n" : " 0\n");
    }
    const Json learned = handle(service, learn_request(pla + ".e\n"));
    ASSERT_TRUE(learned.at("ok").as_bool()) << learned.dump();
    const std::string id = learned.at("model").as_string();
    std::uint64_t hash = 0;
    ASSERT_TRUE(server::model_hash_from_id(id, &hash));
    const auto task = cache.load("models", id, hash);
    ASSERT_TRUE(task.has_value());
    std::istringstream aag(task->aag);
    models.emplace(id, aig::read_aag(aag));
    widths.emplace_back(id, width);
  }

  EvalLineWriter writer(7);
  std::size_t ok = 0;
  for (int i = 0; i < 2500; ++i) {
    const auto& [id, width] =
        widths[static_cast<std::size_t>(i) % widths.size()];
    const std::string line = writer.line(id, width);
    const std::string response = service.handle_line(line);
    ASSERT_EQ(response, oracle_response(line, models)) << line;
    ok += response.find("\"ok\":true") != std::string::npos ? 1 : 0;
  }
  // Both halves of the contract got exercised.
  EXPECT_GT(ok, 500u);
  EXPECT_LT(ok, 2000u);
}

// ====================================================== Service: happy path

TEST(ServiceTest, LearnThenEvalMatchesTheFunction) {
  Service service;
  // OR over 2 inputs: every learner nails this, so eval must reproduce it.
  const Json learned = handle(
      service,
      learn_request(pla_for(2, [](std::uint32_t r) { return r != 0; })));
  ASSERT_TRUE(learned.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(learned.at("train_acc").as_double(), 1.0);
  EXPECT_EQ(learned.at("inputs").as_int(), 2);
  EXPECT_EQ(learned.at("verified").as_string(), "-");

  Json request = make_request("eval");
  request.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  for (const char* row : {"00", "10", "01", "11"}) {
    inputs.push_back(Json(row));
  }
  request.set("inputs", std::move(inputs));
  const Json evaled = handle(service, request);
  ASSERT_TRUE(evaled.at("ok").as_bool());
  EXPECT_EQ(evaled.at("rows").as_int(), 4);
  EXPECT_EQ(evaled.at("outputs").at(0).as_string(), "0111");
}

TEST(ServiceTest, BatchedEvalRunsOneSweepAndMatchesPerBatchEvals) {
  Service service;
  const Json learned = handle(
      service,
      learn_request(pla_for(3, [](std::uint32_t r) { return r % 3 == 1; })));
  ASSERT_TRUE(learned.at("ok").as_bool());
  const std::string id = learned.at("model").as_string();

  const std::vector<std::vector<const char*>> batch_rows = {
      {"000", "100", "010"},
      {"110", "001"},
      {"101", "011", "111", "000"},
  };
  // Per-batch baseline: one plain eval per batch.
  std::vector<std::string> baseline_outputs;
  for (const auto& rows : batch_rows) {
    Json request = make_request("eval");
    request.set("model", id);
    Json inputs = Json::array();
    for (const char* row : rows) {
      inputs.push_back(Json(row));
    }
    request.set("inputs", std::move(inputs));
    const Json response = handle(service, request);
    ASSERT_TRUE(response.at("ok").as_bool());
    baseline_outputs.push_back(response.at("outputs").at(0).as_string());
  }

  const std::uint64_t sweeps_before = service.stats().eval_sweeps.load();
  Json request = make_request("eval");
  request.set("model", id);
  Json batches = Json::array();
  for (const auto& rows : batch_rows) {
    Json batch = Json::array();
    for (const char* row : rows) {
      batch.push_back(Json(row));
    }
    batches.push_back(std::move(batch));
  }
  request.set("batches", std::move(batches));
  const Json response = handle(service, request);
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  EXPECT_EQ(response.at("rows").as_int(), 9);
  ASSERT_EQ(response.at("batches").size(), batch_rows.size());
  for (std::size_t b = 0; b < batch_rows.size(); ++b) {
    const Json& entry = response.at("batches").at(b);
    EXPECT_EQ(entry.at("rows").as_int(),
              static_cast<std::int64_t>(batch_rows[b].size()));
    // Each batch's slice of the shared sweep is byte-identical to its own
    // standalone eval — the batching determinism contract.
    EXPECT_EQ(entry.at("outputs").at(0).as_string(), baseline_outputs[b]);
  }
  // N batches, ONE sweep.
  EXPECT_EQ(service.stats().eval_sweeps.load(), sweeps_before + 1);
}

TEST(ServiceTest, ConcurrentSameModelEvalsMatchTheSerialReply) {
  Service service;
  const Json learned = handle(
      service,
      learn_request(pla_for(4, [](std::uint32_t r) { return r % 5 == 2; })));
  ASSERT_TRUE(learned.at("ok").as_bool());

  Json request = make_request("eval");
  request.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  core::Rng rng(3);
  for (std::size_t i = 0; i < 300; ++i) {
    std::string row(4, '0');
    for (auto& c : row) {
      c = (rng.next() & 1u) != 0 ? '1' : '0';
    }
    inputs.push_back(Json(std::move(row)));
  }
  request.set("inputs", std::move(inputs));
  const std::string line = request.dump();
  const std::string baseline = service.handle_line(line);
  const std::uint64_t evals0 = service.stats().evals.load();
  const std::uint64_t sweeps0 = service.stats().eval_sweeps.load();

  // Sixteen threads evaluate the same model at once, many times each:
  // every reply is the serial one, and every eval ran its own sweep.
  constexpr int kThreads = 16;
  constexpr int kRounds = 20;
  std::vector<std::vector<std::string>> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        responses[t].push_back(service.handle_line(line));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& replies : responses) {
    for (const std::string& response : replies) {
      EXPECT_EQ(response, baseline);
    }
  }
  EXPECT_EQ(service.stats().evals.load() - evals0, kThreads * kRounds);
  EXPECT_EQ(service.stats().eval_sweeps.load() - sweeps0,
            kThreads * kRounds);
}

TEST(ServiceTest, SynthOptimizesAndStaysEquivalent) {
  Service service;
  core::Rng rng(7);
  aig::ConeOptions cone;
  cone.num_inputs = 12;
  cone.num_ands = 150;
  const aig::Aig in = aig::random_cone(cone, rng);

  Json request = make_request("synth");
  request.set("aag", aag_text(in));
  request.set("script", "resyn2");
  const Json response = handle(service, request);
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  EXPECT_EQ(response.at("script").as_string(),
            synth::Script::preset("resyn2").str());
  EXPECT_GT(response.at("trace").size(), 0u);
  EXPECT_LE(response.at("ands").as_int(), response.at("ands_in").as_int());

  std::istringstream optimized_text(response.at("aag").as_string());
  const aig::Aig optimized = aig::read_aag(optimized_text);
  const sat::CecResult cec = sat::cec(in, optimized);
  EXPECT_EQ(cec.status, sat::CecStatus::kEquivalent);
}

TEST(ServiceTest, SynthRejectsAutoAndNamesNoFingerprint) {
  Service service;
  core::Rng rng(11);
  aig::ConeOptions cone;
  cone.num_inputs = 10;
  cone.num_ands = 120;
  const aig::Aig in = aig::random_cone(cone, rng);

  // "auto" is neither a preset nor a pass: an error line, not a search.
  Json request = make_request("synth");
  request.set("aag", aag_text(in));
  request.set("script", "auto");
  const Json response = handle(service, request);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("type").as_string(), "error");
  EXPECT_NE(response.at("error").as_string().find("bad 'script'"),
            std::string::npos)
      << response.dump();

  // A fixed-script reply names its script and carries no script_fp.
  Json fixed = make_request("synth");
  fixed.set("aag", aag_text(in));
  fixed.set("script", "resyn2");
  const Json baseline = handle(service, fixed);
  ASSERT_TRUE(baseline.at("ok").as_bool()) << baseline.dump();
  EXPECT_EQ(baseline.at("script").as_string(),
            synth::Script::preset("resyn2").str());
  EXPECT_FALSE(baseline.has("script_fp"));
}

TEST(ServiceTest, SynthRejectsBadScript) {
  Service service;
  Json request = make_request("synth");
  request.set("aag", aag_text(or2_circuit()));
  request.set("script", "zz;yy");
  EXPECT_NE(handle(service, request).at("error").as_string().find(
                "bad 'script'"),
            std::string::npos);
}

TEST(ServiceTest, CecVerdicts) {
  Service service;
  Json request = make_request("cec");
  request.set("a", aag_text(or2_circuit()));
  request.set("b", aag_text(or2_circuit()));
  EXPECT_EQ(handle(service, request).at("verdict").as_string(), "equivalent");

  request.set("b", aag_text(and2_circuit()));
  const Json response = handle(service, request);
  EXPECT_EQ(response.at("verdict").as_string(), "not_equivalent");
  const std::string cube = response.at("counterexample").as_string();
  ASSERT_EQ(cube.size(), 2u);
  std::vector<std::uint8_t> row{static_cast<std::uint8_t>(cube[0] == '1'),
                                static_cast<std::uint8_t>(cube[1] == '1')};
  EXPECT_NE(or2_circuit().eval_row(row)[0], and2_circuit().eval_row(row)[0]);

  // Shape mismatch is a usage error, not a verdict.
  Json mismatched = make_request("cec");
  mismatched.set("a", aag_text(or2_circuit()));
  aig::Aig three(3);
  three.add_output(three.pi(2));
  mismatched.set("b", aag_text(three));
  EXPECT_FALSE(handle(service, mismatched).at("ok").as_bool());
}

// =========================================================== Service: caches

TEST(ServiceTest, RepeatedLearnIsAMemoryCacheHit) {
  Service service;
  const std::string pla =
      pla_for(4, [](std::uint32_t r) { return (r & 3) == 2; });
  const std::string first = service.handle_line(learn_request(pla).dump());
  const std::string second = service.handle_line(learn_request(pla).dump());
  EXPECT_EQ(first, second);  // bit-identical, no cached-ness marker
  EXPECT_EQ(service.stats().learns.load(), 1u);
  EXPECT_GE(service.stats().model_memory_hits.load(), 1u);
}

TEST(ServiceTest, ModelIdDependsOnContent) {
  Service service;
  const std::string pla =
      pla_for(3, [](std::uint32_t r) { return r % 3 == 0; });
  const Json a = handle(service, learn_request(pla));
  Json with_seed = learn_request(pla);
  with_seed.set("seed", std::int64_t{1});
  const Json b = handle(service, with_seed);
  const Json c = handle(service, learn_request(pla, "rf"));
  EXPECT_NE(a.at("model").as_string(), b.at("model").as_string());
  EXPECT_NE(a.at("model").as_string(), c.at("model").as_string());
  EXPECT_EQ(service.stats().learns.load(), 3u);
}

TEST(ServiceTest, LruEvictsOldestModel) {
  ServiceOptions options;
  options.model_capacity = 2;
  Service service(options);
  std::vector<std::string> ids;
  for (std::uint32_t k = 0; k < 3; ++k) {
    const Json learned = handle(
        service, learn_request(pla_for(
                     3, [k](std::uint32_t r) { return (r & 3) == k; })));
    ASSERT_TRUE(learned.at("ok").as_bool());
    ids.push_back(learned.at("model").as_string());
  }
  EXPECT_EQ(service.models_cached(), 2u);
  // No disk level configured, so the evicted model is gone...
  Json request = make_request("eval");
  request.set("model", ids[0]);
  Json inputs = Json::array();
  inputs.push_back(Json("000"));
  request.set("inputs", std::move(inputs));
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());
  // ...while the two recent ones still serve.
  request.set("model", ids[2]);
  EXPECT_TRUE(handle(service, request).at("ok").as_bool());
}

TEST(ServiceTest, ShardedStoreKeepsGlobalLruOrder) {
  // Entries land in different shards by id hash, but eviction must still
  // follow the GLOBAL access order — exactly what a single-map LRU did.
  ServiceOptions options;
  options.model_capacity = 4;
  options.store_shards = 4;
  Service service(options);
  std::vector<std::string> ids;
  for (std::uint32_t k = 0; k < 6; ++k) {
    const Json learned = handle(
        service, learn_request(pla_for(
                     3, [k](std::uint32_t r) { return (r % 7) == k; })));
    ASSERT_TRUE(learned.at("ok").as_bool());
    ids.push_back(learned.at("model").as_string());
  }
  EXPECT_EQ(service.models_cached(), 4u);
  EXPECT_EQ(service.stats().model_evictions.load(), 2u);
  Json request = make_request("eval");
  Json inputs = Json::array();
  inputs.push_back(Json("000"));
  request.set("inputs", std::move(inputs));
  // The two oldest are gone, the four recent ones serve.
  for (std::size_t k = 0; k < ids.size(); ++k) {
    request.set("model", ids[k]);
    EXPECT_EQ(handle(service, request).at("ok").as_bool(), k >= 2) << k;
  }
  EXPECT_GT(service.models_cached_bytes(), 0u);
}

TEST(ServiceTest, StoreByteBudgetEvicts) {
  ServiceOptions options;
  options.model_capacity = 64;
  options.model_store_bytes = 1;  // nothing fits: every put evicts
  Service service(options);
  const std::string pla =
      pla_for(3, [](std::uint32_t r) { return r % 2 == 1; });
  ASSERT_TRUE(handle(service, learn_request(pla)).at("ok").as_bool());
  EXPECT_EQ(service.models_cached(), 0u);
  EXPECT_GE(service.stats().model_evictions.load(), 1u);
  // With no memory entry and no disk level, the same learn refits.
  ASSERT_TRUE(handle(service, learn_request(pla)).at("ok").as_bool());
  EXPECT_EQ(service.stats().learns.load(), 2u);
}

TEST(ServiceTest, DiskCacheServesAcrossServiceInstances) {
  const std::string dir = temp_dir("disk_cache");
  ServiceOptions options;
  options.cache_dir = dir;
  const std::string pla =
      pla_for(4, [](std::uint32_t r) { return (r >> 1) % 2 == 1; });

  std::string first_line;
  std::string model_id;
  {
    Service service(options);
    first_line = service.handle_line(learn_request(pla).dump());
    model_id = Json::parse(first_line).at("model").as_string();
    EXPECT_EQ(service.stats().learns.load(), 1u);
  }
  {
    // A "restarted server": same cache dir, fresh memory.
    Service service(options);
    const std::string replay = service.handle_line(learn_request(pla).dump());
    EXPECT_EQ(replay, first_line);
    EXPECT_EQ(service.stats().learns.load(), 0u);  // no refit
    EXPECT_EQ(service.stats().model_disk_hits.load(), 1u);

    // eval by model id alone also restores from disk.
    Service fresh(options);
    Json request = make_request("eval");
    request.set("model", model_id);
    Json inputs = Json::array();
    inputs.push_back(Json("0100"));
    request.set("inputs", std::move(inputs));
    EXPECT_TRUE(handle(fresh, request).at("ok").as_bool());
    EXPECT_EQ(fresh.stats().model_disk_hits.load(), 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, PrepareInlineAcceptsOnlyWorkThatCannotBlock) {
  const std::string dir = temp_dir("prepare_inline");
  ServiceOptions options;
  options.cache_dir = dir;
  const std::string pla =
      pla_for(3, [](std::uint32_t r) { return r % 3 == 0; });
  std::string model_id;
  {
    Service warm(options);  // leaves the model in the disk level only
    model_id = handle(warm, learn_request(pla)).at("model").as_string();
  }
  Service service(options);
  const auto inline_ok = [&](const Json& request) {
    Service::Request parsed = service.parse(request.dump(),
                                            std::chrono::steady_clock::now());
    return service.prepare_inline(parsed);
  };
  Json eval = make_request("eval");
  eval.set("model", model_id);
  Json inputs = Json::array();
  inputs.push_back(Json("011"));
  eval.set("inputs", std::move(inputs));
  Json sleepy = make_request("ping");
  sleepy.set("sleep_ms", std::int64_t{1});

  EXPECT_FALSE(inline_ok(learn_request(pla)));
  EXPECT_FALSE(inline_ok(make_request("synth")));
  EXPECT_FALSE(inline_ok(make_request("cec")));
  EXPECT_FALSE(inline_ok(sleepy));
  EXPECT_FALSE(inline_ok(eval));  // the model is on disk, not in memory
  EXPECT_TRUE(inline_ok(make_request("ping")));
  EXPECT_TRUE(inline_ok(make_request("stats")));
  EXPECT_TRUE(inline_ok(make_request("metrics")));
  EXPECT_TRUE(inline_ok(make_request("eval")));  // fails without a lookup
  EXPECT_EQ(service.stats().model_memory_hits.load(), 0u);

  // Reading the model from disk puts it in memory: now the eval is light,
  // and running it counts the one lookup prepare_inline made.
  const std::string expected = service.handle_line(eval.dump());
  EXPECT_EQ(service.stats().model_disk_hits.load(), 1u);
  Service::Request parsed =
      service.parse(eval.dump(), std::chrono::steady_clock::now());
  ASSERT_TRUE(service.prepare_inline(parsed));
  EXPECT_EQ(service.execute(parsed), expected);
  EXPECT_EQ(service.stats().model_memory_hits.load(), 1u);
  std::filesystem::remove_all(dir);
}

// ========================================================= Service: deadlines

TEST(ServiceTest, ExpiredDeadlineGatesHeavyWork) {
  Service service;
  Json request = learn_request(
      pla_for(3, [](std::uint32_t r) { return r % 5 == 0; }));
  request.set("deadline_ms", std::int64_t{10});
  const Json response =
      Json::parse(service.handle_line(request.dump(), received_ago(100)));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("expired").as_bool());
  EXPECT_EQ(service.stats().deadline_expired.load(), 1u);
  EXPECT_EQ(service.stats().learns.load(), 0u);

  // The same request with a live deadline succeeds.
  const Json live =
      Json::parse(service.handle_line(request.dump(), received_ago(0)));
  EXPECT_TRUE(live.at("ok").as_bool());
}

TEST(ServiceTest, ExpiredDeadlineStillServesCacheHits) {
  Service service;
  const std::string pla =
      pla_for(3, [](std::uint32_t r) { return r % 5 == 1; });
  ASSERT_TRUE(handle(service, learn_request(pla)).at("ok").as_bool());
  Json request = learn_request(pla);
  request.set("deadline_ms", std::int64_t{10});
  const Json response =
      Json::parse(service.handle_line(request.dump(), received_ago(100)));
  EXPECT_TRUE(response.at("ok").as_bool());  // cache hits beat deadlines
}

TEST(ServiceTest, CecDeadlineDegradesToUndecided) {
  Service service;
  Json request = make_request("cec");
  request.set("a", aag_text(or2_circuit()));
  request.set("b", aag_text(and2_circuit()));
  request.set("deadline_ms", std::int64_t{5});
  const Json response =
      Json::parse(service.handle_line(request.dump(), received_ago(50)));
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("verdict").as_string(), "undecided");
  EXPECT_TRUE(response.at("expired").as_bool());
  EXPECT_EQ(service.stats().deadline_expired.load(), 1u);
}

TEST(ServiceTest, SynthDeadlineExpiryIsAnError) {
  Service service;
  Json request = make_request("synth");
  request.set("aag", aag_text(or2_circuit()));
  request.set("deadline_ms", std::int64_t{5});
  const Json response =
      Json::parse(service.handle_line(request.dump(), received_ago(50)));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("expired").as_bool());
}

// ============================================================ Service: stdio

TEST(ServiceTest, ServeStreamAnswersLineByLine) {
  Service service;
  std::istringstream in(
      "{\"id\":1,\"type\":\"ping\"}\n"
      "\n"  // blank lines are skipped
      "this is not json\n"
      "{\"id\":2,\"type\":\"ping\"}\n");
  std::ostringstream out;
  const std::uint64_t answered = service.serve_stream(in, out, 1 << 20);
  EXPECT_EQ(answered, 3u);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(Json::parse(line).at("id").as_int(), 1);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_FALSE(Json::parse(line).at("ok").as_bool());
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(Json::parse(line).at("id").as_int(), 2);
}

TEST(ServiceTest, ServeStreamEnforcesRequestCap) {
  Service service;
  const std::string big(512, 'x');
  std::istringstream in("{\"type\":\"ping\"}\n" + big + "\n");
  std::ostringstream out;
  service.serve_stream(in, out, 256);
  EXPECT_NE(out.str().find("max-request-bytes"), std::string::npos);
}

// ================================================================ telemetry

TEST(ServiceTest, MetricsOpExposesPrometheusFamilies) {
  Service service;
  const std::string pla =
      pla_for(3, [](std::uint32_t r) { return (r & 1) != 0; });
  ASSERT_TRUE(handle(service, learn_request(pla)).at("ok").as_bool());
  const Json response = handle(service, make_request("metrics"));
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("content_type").as_string(),
            "text/plain; version=0.0.4");
  const std::string text = response.at("text").as_string();
  // Families from the server, synth, and per-op histogram layers; the
  // learn above guarantees each is non-trivial.
  EXPECT_NE(text.find("# TYPE lsml_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lsml_server_op_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("lsml_server_op_ns_count{op=\"learn\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lsml_synth_runs_total"), std::string::npos);
  EXPECT_NE(text.find("lsml_server_models_cached 1"), std::string::npos);
}

TEST(ServiceTest, StatsAndMetricsReadTheSameCells) {
  // Satellite contract: `stats` fields are aliases over the registry, so
  // the two ops can never disagree on a quiesced service.
  Service service;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(handle(service, make_request("ping")).at("ok").as_bool());
  }
  const Json stats = handle(service, make_request("stats"));
  const std::string text =
      handle(service, make_request("metrics")).at("text").as_string();
  // stats itself bumped `requests` after its own snapshot, so read the
  // metrics text for the final value and compare pings exactly.
  EXPECT_EQ(stats.at("pings").as_int(), 3);
  EXPECT_NE(text.find("lsml_server_pings_total 3"), std::string::npos);
}

TEST(ServiceTest, ResponsesAreBitIdenticalWithTracingOnOrOff) {
  // The determinism contract: telemetry is a side channel, so the same
  // request stream yields byte-identical responses with the tracer off,
  // on, and re-enabled mid-stream.
  const std::string pla =
      pla_for(4, [](std::uint32_t r) { return (r * 5 + 1) % 3 == 0; });
  aig::ConeOptions cone;
  cone.num_inputs = 6;
  cone.num_ands = 40;
  core::Rng rng(7);
  const aig::Aig circuit = aig::random_cone(cone, rng);
  const auto transcript = [&](bool tracing) {
    if (tracing) {
      obs::Tracer::enable();
    } else {
      obs::Tracer::disable();
    }
    Service service;
    std::vector<std::string> lines;
    lines.push_back(service.handle_line(learn_request(pla).dump()));
    const Json learned = Json::parse(lines.back());
    Json eval = make_request("eval");
    eval.set("model", learned.at("model").as_string());
    Json inputs = Json::array();
    inputs.push_back(Json("0110"));
    inputs.push_back(Json("1011"));
    eval.set("inputs", std::move(inputs));
    lines.push_back(service.handle_line(eval.dump()));
    Json synth = make_request("synth");
    synth.set("aag", aag_text(circuit));
    lines.push_back(service.handle_line(synth.dump()));
    Json cec = make_request("cec");
    cec.set("a", aag_text(or2_circuit()));
    cec.set("b", aag_text(and2_circuit()));
    lines.push_back(service.handle_line(cec.dump()));
    return lines;
  };
  const std::vector<std::string> off = transcript(false);
  const std::vector<std::string> on = transcript(true);
  obs::Tracer::disable();
  obs::Tracer::reset();
  const std::vector<std::string> off_again = transcript(false);
  EXPECT_EQ(off, on);
  EXPECT_EQ(off, off_again);
}

// ================================================================ TCP daemon

ServerOptions test_server_options() {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.num_threads = 4;
  return options;
}

TEST(ServerTest, StartServeStop) {
  Server server(test_server_options());
  server.start();
  ASSERT_GT(server.port(), 0);
  Client client;
  client.connect("127.0.0.1", server.port());
  const Json pong = client.request(make_request("ping"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_EQ(server.stats().connections.load(), 1u);
  server.stop();
  // stop() is idempotent and re-entrant with the destructor.
  server.stop();
}

TEST(ServerTest, ProtocolErrorKeepsTheConnectionOpen) {
  Server server(test_server_options());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const std::string error_line = client.roundtrip("definitely not json");
  EXPECT_FALSE(Json::parse(error_line).at("ok").as_bool());
  // Same connection, next request fine.
  EXPECT_TRUE(client.request(make_request("ping")).at("ok").as_bool());
}

TEST(ServerTest, OversizedRequestIsRejectedAndConnectionClosed) {
  ServerOptions options = test_server_options();
  options.max_request_bytes = 256;
  Server server(options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  const std::string big(4096, 'a');
  const std::string response = client.roundtrip(big);
  EXPECT_NE(response.find("max-request-bytes"), std::string::npos);
  std::string next;
  EXPECT_FALSE(client.recv_line(&next));  // server hung up

  // Also when the oversized line trickles in without a newline.
  Client slow;
  slow.connect("127.0.0.1", server.port());
  slow.send_raw(std::string(8192, 'b'));  // no terminator
  std::string reject;
  ASSERT_TRUE(slow.recv_line(&reject));
  EXPECT_NE(reject.find("max-request-bytes"), std::string::npos);
  EXPECT_GE(server.stats().oversized_rejects.load(), 2u);

  // The daemon itself survives.
  Client again;
  again.connect("127.0.0.1", server.port());
  EXPECT_TRUE(again.request(make_request("ping")).at("ok").as_bool());
}

TEST(ServerTest, ClientDisconnectsDoNotKillTheDaemon) {
  Server server(test_server_options());
  server.start();

  {  // mid-request: partial line, then gone
    Client client;
    client.connect("127.0.0.1", server.port());
    client.send_raw("{\"type\":\"pi");
    client.close();
  }
  {  // half-close mid-request
    Client client;
    client.connect("127.0.0.1", server.port());
    client.send_raw("{\"type\":\"ping\"");
    client.shutdown_write();
    std::string line;
    EXPECT_FALSE(client.recv_line(&line));  // dropped, never answered
  }
  {  // full request, then gone before the response is read
    Client client;
    client.connect("127.0.0.1", server.port());
    client.send_line(make_request("ping").dump());
    client.close();
  }
  // Daemon still healthy.
  Client client;
  client.connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.request(make_request("ping")).at("ok").as_bool());
}

TEST(ServerTest, RequestsDrippedOneByteAtATimeAreFramedCorrectly) {
  // Regression for the raw-byte path: the transport must frame lines
  // incrementally no matter how the bytes arrive — including one byte per
  // segment across two pipelined requests.
  Server server(test_server_options());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Json first = make_request("ping");
  first.set("id", std::int64_t{1});
  Json second = make_request("ping");
  second.set("id", std::int64_t{2});
  const std::string bytes = first.dump() + "\n" + second.dump() + "\n";
  for (const char c : bytes) {
    client.send_raw(std::string(1, c));
  }
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_EQ(Json::parse(line).at("id").as_int(), 1);
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_EQ(Json::parse(line).at("id").as_int(), 2);
}

TEST(ServerTest, HalfOpenPeerStillReceivesOwedResponses) {
  // A peer that half-closes AFTER a complete request is owed its response:
  // shutdown(SHUT_WR) ends requests, not the connection.
  Server server(test_server_options());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Json request = make_request("ping");
  request.set("sleep_ms", std::int64_t{100});  // half-close races the work
  client.send_line(request.dump());
  client.shutdown_write();
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_TRUE(Json::parse(line).at("ok").as_bool());
  EXPECT_FALSE(client.recv_line(&line));  // then an orderly EOF
}

TEST(ServerTest, OversizedLineMidPipelineAnswersEarlierRequestsFirst) {
  // One segment carrying a valid request AND the start of a poison line:
  // the framed request is answered, then the reject, then the close.
  ServerOptions options = test_server_options();
  options.max_request_bytes = 256;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  client.send_raw(make_request("ping").dump() + "\n" +
                  std::string(4096, 'x'));  // no terminator, already > cap
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_TRUE(Json::parse(line).at("ok").as_bool());
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_NE(line.find("max-request-bytes"), std::string::npos);
  EXPECT_FALSE(client.recv_line(&line));  // connection closed
  EXPECT_EQ(server.stats().oversized_rejects.load(), 1u);
}

TEST(ServerTest, SlowReaderTriggersBackpressureAndLosesNothing) {
  ServerOptions options = test_server_options();
  options.write_high_water_bytes = 4096;
  options.send_buffer_bytes = 16384;  // fixed, so ~100 KB responses jam
  Server server(options);
  server.start();

  // Learn a tiny model, then request wide evals (~100k-char outputs) on a
  // connection whose receive window is clamped to 4 KB and whose reader
  // does not read for a while: responses pile up server-side, cross the
  // high-water mark, and pause the read side — without dropping a byte.
  Client setup;
  setup.connect("127.0.0.1", server.port());
  const Json learned = Json::parse(setup.roundtrip(
      learn_request(pla_for(2, [](std::uint32_t r) { return r != 0; }))
          .dump()));
  ASSERT_TRUE(learned.at("ok").as_bool());

  Json eval = make_request("eval");
  eval.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  for (int i = 0; i < 100000; ++i) {
    inputs.push_back(Json(i % 2 != 0 ? "11" : "00"));
  }
  eval.set("inputs", std::move(inputs));
  const std::string line = eval.dump();
  const std::string expected = setup.roundtrip(line);

  constexpr int kRequests = 6;
  Client slow;
  slow.connect("127.0.0.1", server.port(), 4096);
  std::thread writer([&] {
    for (int i = 0; i < kRequests; ++i) {
      slow.send_line(line);
    }
  });
  // Let responses pile into the paused connection before draining them.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int i = 0; i < kRequests; ++i) {
    std::string response;
    ASSERT_TRUE(slow.recv_line(&response)) << i;
    EXPECT_EQ(response, expected) << i;
  }
  writer.join();
  EXPECT_GE(server.stats().backpressure_pauses.load(), 1u);
}

TEST(ServerTest, QueuedRequestsPauseReadingWhileAPooledOneRuns) {
  // A sleeping ping holds the only worker, and the same connection
  // pipelines 8 MB of pings behind it. None can run before the sleep
  // ends, so the queue itself must cross the high-water mark and pause
  // the read side; afterwards every ping is answered, in order.
  ServerOptions options = test_server_options();
  options.num_threads = 1;
  Server server(options);
  server.start();

  constexpr std::int64_t kSleepMs = 2000;
  Client client;
  client.connect("127.0.0.1", server.port());
  Json sleepy = make_request("ping");
  sleepy.set("id", std::int64_t{-1});
  sleepy.set("sleep_ms", kSleepMs);
  const std::uint64_t pings0 = server.service().stats().pings.load();
  const auto sent = std::chrono::steady_clock::now();
  client.send_line(sleepy.dump());

  constexpr int kPings = 32768;
  const std::string pad(240, 'x');
  std::string burst;
  for (int i = 0; i < kPings; ++i) {
    Json ping = make_request("ping");
    ping.set("id", std::int64_t{i});
    ping.set("pad", pad);
    burst += ping.dump() + "\n";
  }
  ASSERT_GE(burst.size(), std::size_t{8} << 20);
  std::thread writer([&] { client.send_raw(burst); });

  while (server.stats().backpressure_pauses.load() == 0 &&
         std::chrono::steady_clock::now() - sent <
             std::chrono::milliseconds(kSleepMs - 500)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().backpressure_pauses.load(), 1u);
  // No ping has finished yet, the sleeping one included.
  EXPECT_EQ(server.service().stats().pings.load(), pings0);

  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_EQ(Json::parse(line).at("id").as_int(), -1);
  for (int i = 0; i < kPings; ++i) {
    ASSERT_TRUE(client.recv_line(&line)) << i;
    const Json reply = Json::parse(line);
    ASSERT_TRUE(reply.at("ok").as_bool()) << i;
    ASSERT_EQ(reply.at("id").as_int(), i);
  }
  writer.join();
}

TEST(ServerTest, ConnectionCapRejectsTheExtraClient) {
  ServerOptions options = test_server_options();
  options.max_connections = 2;
  Server server(options);
  server.start();

  Client a;
  Client b;
  a.connect("127.0.0.1", server.port());
  b.connect("127.0.0.1", server.port());
  // Both slots land before the cap check sees the third connection.
  EXPECT_TRUE(a.request(make_request("ping")).at("ok").as_bool());
  EXPECT_TRUE(b.request(make_request("ping")).at("ok").as_bool());

  Client extra;
  extra.connect("127.0.0.1", server.port());
  std::string line;
  ASSERT_TRUE(extra.recv_line(&line));
  EXPECT_NE(line.find("connection limit"), std::string::npos);
  EXPECT_FALSE(extra.recv_line(&line));  // closed right after
  EXPECT_EQ(server.stats().over_connection_cap.load(), 1u);

  // Freeing a slot readmits new clients (once the loop sees the close).
  b.close();
  bool admitted = false;
  for (int attempt = 0; attempt < 200 && !admitted; ++attempt) {
    try {
      Client again;
      again.connect("127.0.0.1", server.port());
      admitted = again.request(make_request("ping")).at("ok").as_bool();
    } catch (const std::exception&) {
      // Rejected connections may RST before the error line arrives.
    }
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(admitted);
}

TEST(ServerTest, DeadlineExpiresWhileQueuedBehindABusyWorker) {
  ServerOptions options = test_server_options();
  options.num_threads = 1;  // one worker: the sleeper blocks the queue
  Server server(options);
  server.start();

  Client sleeper;
  sleeper.connect("127.0.0.1", server.port());
  Json sleep_request = make_request("ping");
  sleep_request.set("sleep_ms", std::int64_t{400});
  sleeper.send_line(sleep_request.dump());
  // Give the worker time to claim the sleeping ping.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client hurried;
  hurried.connect("127.0.0.1", server.port());
  Json learn = learn_request(
      pla_for(4, [](std::uint32_t r) { return r % 7 == 0; }));
  learn.set("deadline_ms", std::int64_t{50});
  const Json response = Json::parse(hurried.roundtrip(learn.dump()));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("expired").as_bool());

  std::string pong;
  ASSERT_TRUE(sleeper.recv_line(&pong));
  EXPECT_TRUE(Json::parse(pong).at("ok").as_bool());
}

TEST(ServerTest, PipelinedRequestsAreStampedWhenFramedNotWhenServed) {
  // Two requests written in one batch on one connection: a slow ping and
  // a tightly-deadlined learn. The learn's deadline clock must start when
  // its line arrived — i.e. the time it spends waiting behind the ping
  // counts — not when the ping finished.
  ServerOptions options = test_server_options();
  options.num_threads = 1;
  Server server(options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  Json slow = make_request("ping");
  slow.set("sleep_ms", std::int64_t{300});
  Json hurried = learn_request(
      pla_for(4, [](std::uint32_t r) { return r % 9 == 2; }));
  hurried.set("deadline_ms", std::int64_t{50});
  client.send_raw(slow.dump() + "\n" + hurried.dump() + "\n");

  std::string first;
  std::string second;
  ASSERT_TRUE(client.recv_line(&first));
  ASSERT_TRUE(client.recv_line(&second));
  EXPECT_TRUE(Json::parse(first).at("ok").as_bool());
  const Json response = Json::parse(second);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("expired").as_bool());
  EXPECT_EQ(server.service().stats().learns.load(), 0u);
}

/// A client that has answered one ping: the server accepted it and its
/// loop adopted it, so clients connected one after another get
/// consecutive connection ids (and loops `id % loops`).
void connect_and_ping(Client* client, int port, int recv_buffer_bytes = 0) {
  client->connect("127.0.0.1", port, recv_buffer_bytes);
  ASSERT_TRUE(client->request(make_request("ping")).at("ok").as_bool());
}

TEST(ServerTest, PipelinedBurstIsAnsweredInOrderWhileItsLoopServesOthers) {
  // One pool worker: two loops. Connection ids 0 and 2 share loop 0, ids
  // 1 and 3 share loop 1.
  ServerOptions options = test_server_options();
  options.num_threads = 1;
  options.write_high_water_bytes = 64u << 10;
  options.send_buffer_bytes = 16384;  // replies back up in the server
  Server server(options);
  server.start();

  const std::string pla = pla_for(3, [](std::uint32_t r) { return r % 3 == 1; });
  Client setup;  // id 0
  setup.connect("127.0.0.1", server.port());
  const Json learned = Json::parse(setup.roundtrip(learn_request(pla).dump()));
  ASSERT_TRUE(learned.at("ok").as_bool());
  const std::string model = learned.at("model").as_string();

  // 20,000 small eval and ping lines, each with its own id, in one send.
  // The reference replies come from a serial Service with the same model.
  Service reference;
  ASSERT_TRUE(handle(reference, learn_request(pla)).at("ok").as_bool());
  constexpr int kLines = 20000;
  std::string burst;
  std::vector<std::string> expected;
  expected.reserve(kLines);
  for (int i = 0; i < kLines; ++i) {
    Json request = make_request(i % 3 == 0 ? "ping" : "eval");
    request.set("id", std::int64_t{i});
    if (i % 3 != 0) {
      request.set("model", model);
      Json inputs = Json::array();
      for (int r = 0; r < 1 + i % 5; ++r) {
        std::string row(3, '0');
        for (int c = 0; c < 3; ++c) {
          row[c] = (((i + r) >> c) & 1) != 0 ? '1' : '0';
        }
        inputs.push_back(Json(row));
      }
      request.set("inputs", std::move(inputs));
    }
    const std::string line = request.dump();
    burst += line + "\n";
    expected.push_back(reference.handle_line(line));
  }

  Client flooder;  // id 1, loop 1; a small window keeps replies server-side
  connect_and_ping(&flooder, server.port(), 4096);
  Client other;  // id 2, loop 0
  connect_and_ping(&other, server.port());
  Client neighbor;  // id 3, loop 1: shares the flooder's loop
  connect_and_ping(&neighbor, server.port());

  const std::uint64_t requests0 = server.service().stats().requests.load();
  std::thread writer([&] { flooder.send_raw(burst); });
  // Wait until the loop is inside the burst. The flooder reads nothing
  // yet, so its replies back up past the high-water mark and the burst
  // cannot finish before the neighbor is answered.
  while (server.service().stats().requests.load() - requests0 < 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Json ping = make_request("ping");
  ping.set("id", std::int64_t{-1});
  const Json pong = neighbor.request(ping);
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_EQ(pong.at("id").as_int(), -1);
  EXPECT_LT(server.service().stats().requests.load() - requests0,
            static_cast<std::uint64_t>(kLines));
  EXPECT_GE(server.stats().backpressure_pauses.load(), 1u);

  for (int i = 0; i < kLines; ++i) {
    std::string reply;
    ASSERT_TRUE(flooder.recv_line(&reply)) << i;
    ASSERT_EQ(reply, expected[i]) << i;
  }
  writer.join();
}

TEST(ServerTest, EvalIsAnsweredWhileASleepingPingHoldsThePool) {
  ServerOptions options = test_server_options();
  options.num_threads = 1;
  Server server(options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  const Json learned = Json::parse(client.roundtrip(
      learn_request(pla_for(2, [](std::uint32_t r) { return r == 2; }))
          .dump()));
  ASSERT_TRUE(learned.at("ok").as_bool());
  Json eval = make_request("eval");
  eval.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  inputs.push_back(Json("01"));
  eval.set("inputs", std::move(inputs));

  Client sleeper;
  sleeper.connect("127.0.0.1", server.port());
  Json sleep_request = make_request("ping");
  sleep_request.set("sleep_ms", std::int64_t{400});
  const auto sent = std::chrono::steady_clock::now();
  sleeper.send_line(sleep_request.dump());
  // Let the only worker claim the sleeping ping.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Evals run on the connection's loop, not behind the busy pool.
  const Json reply = client.request(eval);
  const auto answered = std::chrono::steady_clock::now();
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("outputs").at(0).as_string(), "1");
  EXPECT_LT(answered - sent, std::chrono::milliseconds(300));

  std::string pong;
  ASSERT_TRUE(sleeper.recv_line(&pong));
  EXPECT_TRUE(Json::parse(pong).at("ok").as_bool());
  EXPECT_GE(std::chrono::steady_clock::now() - sent,
            std::chrono::milliseconds(400));
}

/// Holds the only worker of a one-worker server with a 400 ms ping on
/// `sleeper`, and returns when the ping was sent.
std::chrono::steady_clock::time_point hold_the_pool(Client* sleeper) {
  Json sleep_request = make_request("ping");
  sleep_request.set("sleep_ms", std::int64_t{400});
  const auto sent = std::chrono::steady_clock::now();
  sleeper->send_line(sleep_request.dump());
  // Let the worker claim the sleeping ping.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  return sent;
}

TEST(ServerTest, LongLineWaitsForAWorkerWhileItsLoopAnswersOthers) {
  // One pool worker: two loops. Connection ids 1 and 3 share loop 1.
  ServerOptions options = test_server_options();
  options.num_threads = 1;
  Server server(options);
  server.start();

  const std::string pla = pla_for(2, [](std::uint32_t r) { return r == 1; });
  Client setup;  // id 0, loop 0
  setup.connect("127.0.0.1", server.port());
  const Json learned = Json::parse(setup.roundtrip(learn_request(pla).dump()));
  ASSERT_TRUE(learned.at("ok").as_bool());
  Json eval = make_request("eval");
  eval.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  for (int r = 0; r < 60000; ++r) {
    inputs.push_back(Json(r % 3 == 0 ? "10" : "01"));
  }
  eval.set("inputs", std::move(inputs));
  const std::string long_line = eval.dump();
  ASSERT_GT(long_line.size(), std::size_t{256} << 10);
  Service reference;
  ASSERT_TRUE(handle(reference, learn_request(pla)).at("ok").as_bool());
  const std::string expected = reference.handle_line(long_line);

  Client long_client;  // id 1, loop 1
  connect_and_ping(&long_client, server.port());
  Client sleeper;  // id 2, loop 0
  connect_and_ping(&sleeper, server.port());
  Client neighbor;  // id 3, loop 1
  connect_and_ping(&neighbor, server.port());

  const auto sent = hold_the_pool(&sleeper);
  long_client.send_line(long_line);
  // The long line queues behind the sleeping ping on the pool; its loop
  // meanwhile answers the neighbor's eval.
  Json small = make_request("eval");
  small.set("model", learned.at("model").as_string());
  Json row = Json::array();
  row.push_back(Json("10"));
  small.set("inputs", std::move(row));
  const Json reply = neighbor.request(small);
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_LT(std::chrono::steady_clock::now() - sent,
            std::chrono::milliseconds(300));

  std::string response;
  ASSERT_TRUE(long_client.recv_line(&response));
  EXPECT_GE(std::chrono::steady_clock::now() - sent,
            std::chrono::milliseconds(400));
  EXPECT_EQ(response, expected);
  ASSERT_TRUE(sleeper.recv_line(&response));
  EXPECT_TRUE(Json::parse(response).at("ok").as_bool());
}

TEST(ServerTest, DiskOnlyModelEvalWaitsForAWorkerWhileItsLoopAnswersOthers) {
  const std::string dir = temp_dir("disk_eval_on_pool");
  ServerOptions options = test_server_options();
  options.num_threads = 1;
  options.service.cache_dir = dir;
  const std::string on_disk_pla =
      pla_for(3, [](std::uint32_t r) { return r % 3 == 1; });
  std::string on_disk;
  Json disk_eval = make_request("eval");
  std::string expected;
  {
    Service warm(options.service);  // a previous server run
    on_disk = handle(warm, learn_request(on_disk_pla)).at("model").as_string();
    disk_eval.set("model", on_disk);
    Json inputs = Json::array();
    inputs.push_back(Json("101"));
    inputs.push_back(Json("010"));
    disk_eval.set("inputs", std::move(inputs));
    expected = warm.handle_line(disk_eval.dump());
  }
  Server server(options);
  server.start();

  Client setup;  // id 0, loop 0: puts a second model in memory
  setup.connect("127.0.0.1", server.port());
  const Json learned = Json::parse(setup.roundtrip(
      learn_request(pla_for(2, [](std::uint32_t r) { return r != 2; }))
          .dump()));
  ASSERT_TRUE(learned.at("ok").as_bool());
  Json memory_eval = make_request("eval");
  memory_eval.set("model", learned.at("model").as_string());
  Json row = Json::array();
  row.push_back(Json("01"));
  memory_eval.set("inputs", std::move(row));

  Client disk_client;  // id 1, loop 1
  connect_and_ping(&disk_client, server.port());
  Client sleeper;  // id 2, loop 0
  connect_and_ping(&sleeper, server.port());
  Client neighbor;  // id 3, loop 1
  connect_and_ping(&neighbor, server.port());

  const auto sent = hold_the_pool(&sleeper);
  // Reading a model from the disk level is file I/O: it waits for the
  // worker, while its loop answers evals on models in memory.
  disk_client.send_line(disk_eval.dump());
  EXPECT_TRUE(neighbor.request(memory_eval).at("ok").as_bool());
  EXPECT_LT(std::chrono::steady_clock::now() - sent,
            std::chrono::milliseconds(300));

  std::string response;
  ASSERT_TRUE(disk_client.recv_line(&response));
  EXPECT_GE(std::chrono::steady_clock::now() - sent,
            std::chrono::milliseconds(400));
  EXPECT_EQ(response, expected);
  EXPECT_EQ(server.service().stats().model_disk_hits.load(), 1u);
  // Now in memory, the same eval is answered on its loop again.
  EXPECT_EQ(disk_client.roundtrip(disk_eval.dump()), expected);
  ASSERT_TRUE(sleeper.recv_line(&response));
  EXPECT_TRUE(Json::parse(response).at("ok").as_bool());
  server.stop();
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, CapAndDrainHoldAcrossLoops) {
  // Five connections on two loops: the cap counts them all, and stop()
  // answers every in-flight request on every loop before closing.
  ServerOptions options = test_server_options();
  options.num_threads = 1;
  options.max_connections = 5;
  Server server(options);
  server.start();

  std::vector<Client> clients(5);
  for (Client& client : clients) {
    connect_and_ping(&client, server.port());
  }
  Client extra;
  extra.connect("127.0.0.1", server.port());
  std::string line;
  ASSERT_TRUE(extra.recv_line(&line));
  EXPECT_NE(line.find("connection limit"), std::string::npos);
  EXPECT_EQ(server.stats().over_connection_cap.load(), 1u);

  // Sleeping pings on both loops queue on the one worker.
  Json sleepy = make_request("ping");
  sleepy.set("sleep_ms", std::int64_t{60});
  for (int c = 0; c < 3; ++c) {
    clients[c].send_line(sleepy.dump());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.stop();
  for (int c = 0; c < 5; ++c) {
    if (c < 3) {
      ASSERT_TRUE(clients[c].recv_line(&line)) << c;
      EXPECT_TRUE(Json::parse(line).at("ok").as_bool()) << c;
    }
    EXPECT_FALSE(clients[c].recv_line(&line)) << c;  // then closed
  }
  EXPECT_EQ(server.service().stats().pings.load(), 5u + 3u);
}

// The acceptance-criteria test: 256 concurrent clients replaying a fixed
// request set get byte-identical responses to a serial replay — across the
// event loops, the pool, and the sharded store. Runs under TSan
// in CI, so it is also the concurrency torture test.
TEST(ServerTest, ConcurrentClientsAreBitIdenticalToSerial) {
  // A request mix that exercises every stateful path: learns (shared model
  // store), evals (reads), synth (process-wide memo), cec (SAT).
  std::vector<std::string> request_set;
  for (int k = 0; k < 4; ++k) {
    request_set.push_back(
        learn_request(pla_for(4, [k](std::uint32_t r) {
          return ((r >> (k % 3)) & 1u) == (k % 2 ? 1u : 0u) && r % 3 != 2;
        })).dump());
  }
  core::Rng rng(11);
  aig::ConeOptions cone;
  cone.num_inputs = 10;
  cone.num_ands = 80;
  const aig::Aig circuit = aig::random_cone(cone, rng);
  {
    Json synth = make_request("synth");
    synth.set("aag", aag_text(circuit));
    synth.set("script", "fast");
    request_set.push_back(synth.dump());
    Json cec = make_request("cec");
    cec.set("a", aag_text(or2_circuit()));
    cec.set("b", aag_text(and2_circuit()));
    request_set.push_back(cec.dump());
  }

  ServerOptions options = test_server_options();
  options.num_threads = 0;  // hardware width
  Server server(options);
  server.start();
  const int port = server.port();

  // Serial baseline, including the eval that depends on a learned id.
  std::vector<std::string> baseline;
  {
    Client client;
    client.connect("127.0.0.1", port);
    for (const std::string& line : request_set) {
      baseline.push_back(client.roundtrip(line));
    }
    const Json learned = Json::parse(baseline[0]);
    Json eval = make_request("eval");
    eval.set("model", learned.at("model").as_string());
    Json inputs = Json::array();
    for (const char* row : {"0000", "1010", "1111"}) {
      inputs.push_back(Json(row));
    }
    eval.set("inputs", std::move(inputs));
    request_set.push_back(eval.dump());
    baseline.push_back(client.roundtrip(request_set.back()));
  }

  constexpr int kClients = 256;
  std::vector<std::vector<std::string>> responses(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client;
        client.connect("127.0.0.1", port);
        for (const std::string& line : request_set) {
          responses[c].push_back(client.roundtrip(line));
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& thread : clients) {
    thread.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
    ASSERT_EQ(responses[c].size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(responses[c][i], baseline[i])
          << "client " << c << ", request " << i;
    }
  }
  // All that load refit each model exactly once.
  EXPECT_EQ(server.service().stats().learns.load(), 4u);
}

}  // namespace
}  // namespace lsml
