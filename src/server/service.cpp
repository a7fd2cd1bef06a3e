#include "server/service.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "aig/aig_io.hpp"
#include "aig/sim_engine.hpp"
#include "core/bits.hpp"
#include "core/rng.hpp"
#include "learn/factory.hpp"
#include "learn/learner.hpp"
#include "obs/trace.hpp"
#include "pla/pla.hpp"
#include "portfolio/contest.hpp"
#include "sat/cec.hpp"
#include "synth/script.hpp"

namespace lsml::server {

namespace {

/// Op order of Service::op_ns_; dispatch() indexes both by the same value.
/// The names double as span names and as the `op` label of
/// lsml_server_op_ns, so they must stay protocol-exact.
constexpr const char* kOpNames[Service::kNumOps] = {
    "learn", "eval", "synth", "cec", "ping", "stats", "metrics"};

std::uint64_t ns_since(std::chrono::steady_clock::time_point start,
                       std::chrono::steady_clock::time_point end) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// A request that cannot be served as asked; becomes an ok:false response.
class RequestError : public std::runtime_error {
 public:
  explicit RequestError(const std::string& what) : std::runtime_error(what) {}
};

/// A deadline that ran out before the heavy phase started; becomes an
/// ok:false response with "expired":true.
class DeadlineExpired : public std::runtime_error {
 public:
  explicit DeadlineExpired(const std::string& phase)
      : std::runtime_error("deadline expired before " + phase) {}
};

const Json* optional_member(const Json& request, const char* key) {
  return request.find(key);
}

std::string required_string(const Json& request, const char* key) {
  const Json* v = request.find(key);
  if (v == nullptr || !v->is_string()) {
    throw RequestError(std::string("request needs a string '") + key +
                       "' field");
  }
  return v->as_string();
}

std::int64_t optional_int(const Json& request, const char* key,
                          std::int64_t fallback, std::int64_t min,
                          std::int64_t max) {
  const Json* v = request.find(key);
  if (v == nullptr) {
    return fallback;
  }
  if (!v->is_number()) {
    throw RequestError(std::string("'") + key + "' must be a number");
  }
  const std::int64_t value = v->as_int();
  if (value < min || value > max) {
    throw RequestError(std::string("'") + key + "' must be in [" +
                       std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return value;
}

bool optional_bool(const Json& request, const char* key, bool fallback) {
  const Json* v = request.find(key);
  if (v == nullptr) {
    return fallback;
  }
  if (!v->is_bool()) {
    throw RequestError(std::string("'") + key + "' must be a boolean");
  }
  return v->as_bool();
}

data::Dataset parse_pla_payload(const std::string& text, const char* field) {
  try {
    std::istringstream is(text);
    return pla::read_pla(is).to_dataset();
  } catch (const std::exception& e) {
    throw RequestError(std::string("bad PLA in '") + field + "': " + e.what());
  }
}

aig::Aig parse_aag_payload(const std::string& text, const char* field) {
  try {
    std::istringstream is(text);
    return aig::read_aag(is);
  } catch (const std::exception& e) {
    throw RequestError(std::string("bad AIGER in '") + field +
                       "': " + e.what());
  }
}

std::string aag_to_string(const aig::Aig& aig) {
  std::ostringstream os;
  aig::write_aag(aig, os);
  return os.str();
}

/// Response skeleton: echoed id (if any) first, then ok and type, so every
/// response line starts with the fields a client dispatches on.
Json response_base(const Json& request, const char* type, bool ok) {
  Json r = Json::object();
  if (request.is_object()) {
    if (const Json* id = request.find("id")) {
      r.set("id", *id);
    }
  }
  r.set("ok", ok);
  r.set("type", type);
  return r;
}

/// How many SAT conflicts a cec deadline buys per remaining millisecond —
/// a deliberately conservative rate (small instances do thousands/ms), so
/// a deadline always wins over a pathological miter.
constexpr std::int64_t kCecConflictsPerMs = 2000;

/// Contest seed used when a learn request does not send one.
constexpr std::int64_t kDefaultSeed = 2020;
/// SAT conflict budget of a cec request that does not send one
/// (0 = unlimited).
constexpr std::int64_t kCecConflictBudget = 100000;
/// Cap on ping's optional server-side sleep.
constexpr std::int64_t kMaxPingSleepMs = 60000;

/// The ServiceStats counters in `stats` reply order. Each is also the
/// registry counter lsml_server_<key>_total.
struct StatCounter {
  const char* key;
  obs::Counter ServiceStats::*member;
};
constexpr StatCounter kStatCounters[] = {
    {"requests", &ServiceStats::requests},
    {"errors", &ServiceStats::errors},
    {"learns", &ServiceStats::learns},
    {"model_memory_hits", &ServiceStats::model_memory_hits},
    {"model_disk_hits", &ServiceStats::model_disk_hits},
    {"model_inflight_joins", &ServiceStats::model_inflight_joins},
    {"model_evictions", &ServiceStats::model_evictions},
    {"evals", &ServiceStats::evals},
    {"eval_sweeps", &ServiceStats::eval_sweeps},
    {"eval_rows", &ServiceStats::eval_rows},
    {"synths", &ServiceStats::synths},
    {"cecs", &ServiceStats::cecs},
    {"pings", &ServiceStats::pings},
    {"deadline_expired", &ServiceStats::deadline_expired},
};

}  // namespace

std::int64_t Deadline::elapsed_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - received_at)
      .count();
}

std::int64_t Deadline::remaining_ms() const {
  const std::int64_t left = budget_ms - elapsed_ms();
  return left > 0 ? left : 0;
}

std::string model_id_from_hash(std::uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "m-%016" PRIx64, hash);
  return buf;
}

bool model_hash_from_id(const std::string& id, std::uint64_t* hash) {
  if (id.size() != 18 || id[0] != 'm' || id[1] != '-') {
    return false;
  }
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(id.c_str() + 2, &end, 16);
  if (end != id.c_str() + id.size()) {
    return false;
  }
  *hash = value;
  return true;
}

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      optimizer_(synth::default_optimizer()),
      disk_cache_(options_.cache_dir) {
  register_metrics();
}

void Service::register_metrics() {
  obs::Registry& reg = obs::Registry::instance();
  for (const StatCounter& c : kStatCounters) {
    metric_regs_.push_back(reg.register_counter(
        std::string("lsml_server_") + c.key + "_total", &(stats_.*c.member)));
  }
  metric_regs_.push_back(
      reg.register_histogram("lsml_server_queue_wait_ns", &queue_wait_ns_));
  for (std::size_t op = 0; op < kNumOps; ++op) {
    metric_regs_.push_back(reg.register_histogram(
        std::string("lsml_server_op_ns{op=\"") + kOpNames[op] + "\"}",
        &op_ns_[op]));
  }
  metric_regs_.push_back(reg.register_gauge_fn(
      "lsml_server_models_cached",
      [this] { return static_cast<std::int64_t>(models_cached()); }));
  metric_regs_.push_back(reg.register_gauge_fn(
      "lsml_server_models_cached_bytes",
      [this] { return static_cast<std::int64_t>(models_cached_bytes()); }));
}

Service::Request Service::parse(
    const std::string& line,
    std::chrono::steady_clock::time_point received_at) const {
  Request request;
  request.deadline_.received_at = received_at;
  request.parse_begin_ = std::chrono::steady_clock::now();
  // Minterm rows skip the tree: the parser packs them into these blocks.
  const RowCapture captures[] = {{"inputs", false, &request.inputs_},
                                 {"batches", true, &request.batches_}};
  try {
    {
      obs::ScopedSpan parse_span("parse", "server");
      request.json_ = Json::parse(line, captures);
    }
    if (!request.json_.is_object()) {
      throw RequestError("request must be a JSON object");
    }
    request.deadline_.budget_ms =
        optional_int(request.json_, "deadline_ms", 0, 0, 24LL * 3600 * 1000);
    const std::string type = required_string(request.json_, "type");
    const auto* const op =
        std::find(std::begin(kOpNames), std::end(kOpNames), type);
    if (op == std::end(kOpNames)) {
      throw RequestError(
          "unknown request type '" + type +
          "' (expected learn, eval, synth, cec, ping, stats, or metrics)");
    }
    request.op_ = static_cast<std::size_t>(op - std::begin(kOpNames));
  } catch (...) {
    request.error_ = std::current_exception();
  }
  request.parse_end_ = std::chrono::steady_clock::now();
  return request;
}

bool Service::prepare_inline(Request& request) {
  bool inline_ok = true;
  switch (request.op_) {
    case 0:  // learn
    case 2:  // synth
    case 3:  // cec
      inline_ok = false;
      break;
    case 1: {  // eval
      // Only a memory hit runs inline: a miss may read and parse a disk
      // cache file. handle_eval reuses the model found here.
      const Json* model = request.json_.find("model");
      if (model != nullptr && model->is_string()) {
        request.model_ = store_get(model->as_string());
        inline_ok = request.model_ != nullptr || !disk_cache_.enabled();
      }
      break;
    }
    case 4:  // ping
      inline_ok = request.json_.find("sleep_ms") == nullptr;
      break;
    default:  // stats, metrics, or a line that already failed
      break;
  }
  request.deferred_ = !inline_ok;
  return inline_ok;
}

std::string Service::execute(const Request& request) {
  stats_.requests.add(1);
  // Queue wait: transport frame time -> parse, plus parse -> execution
  // start for a request that waited for a worker. The parse itself is
  // not waiting and is left out.
  const auto received_at = request.deadline_.received_at;
  const auto picked_up = std::chrono::steady_clock::now();
  if (request.parse_begin_ >= received_at) {
    queue_wait_ns_.record(ns_since(received_at, request.parse_begin_) +
                          ns_since(request.parse_end_, picked_up));
    if (obs::Tracer::enabled()) {
      obs::Tracer::record("queue_wait", "server", received_at,
                          request.parse_begin_);
      if (request.deferred_) {
        obs::Tracer::record("queue_wait", "server", request.parse_end_,
                            picked_up);
      }
    }
  }
  try {
    if (request.error_ != nullptr) {
      std::rethrow_exception(request.error_);
    }
    Json response = dispatch(request);
    obs::ScopedSpan serialize_span("serialize", "server");
    return response.dump();
  } catch (const DeadlineExpired& e) {
    stats_.deadline_expired.add(1);
    stats_.errors.add(1);
    Json r = response_base(request.json_, "error", false);
    r.set("error", e.what());
    r.set("expired", true);
    return r.dump();
  } catch (const std::exception& e) {
    stats_.errors.add(1);
    Json r = response_base(request.json_, "error", false);
    r.set("error", e.what());
    return r.dump();
  }
}

std::string Service::handle_line(const std::string& line) {
  return handle_line(line, std::chrono::steady_clock::now());
}

std::string Service::handle_line(
    const std::string& line,
    std::chrono::steady_clock::time_point received_at) {
  return execute(parse(line, received_at));
}

Json Service::dispatch(const Request& request) {
  const std::size_t op = request.op_;
  const Json& json = request.json_;
  const Deadline& deadline = request.deadline_;
  // The per-request span and latency histogram wrap the whole handler;
  // nested spans (sweep, synth passes, SAT solving) land inside it.
  obs::ScopedSpan op_span(kOpNames[op], "server");
  const auto start = std::chrono::steady_clock::now();
  Json response = [&]() -> Json {
    switch (op) {
      case 0:
        return handle_learn(json, deadline);
      case 1:
        return handle_eval(request);
      case 2:
        return handle_synth(json, deadline);
      case 3:
        return handle_cec(json, deadline);
      case 4:
        return handle_ping(json, deadline);
      case 5:
        return handle_stats();
      default:
        return handle_metrics(json);
    }
  }();
  op_ns_[op].record(ns_since(start, std::chrono::steady_clock::now()));
  return response;
}

// ----------------------------------------------------------------- learn

Json Service::handle_learn(const Json& request, const Deadline& deadline) {
  const std::string learner_name = required_string(request, "learner");
  const learn::LearnerFactory factory =
      learn::LearnerFactory::try_from_registry(learner_name);
  if (!factory) {
    throw RequestError("no learner named '" + learner_name +
                       "' is registered");
  }
  const data::Dataset train =
      parse_pla_payload(required_string(request, "pla"), "pla");
  if (train.num_rows() == 0) {
    throw RequestError("'pla' holds no minterms");
  }
  data::Dataset valid = train;
  if (const Json* v = optional_member(request, "valid_pla")) {
    if (!v->is_string()) {
      throw RequestError("'valid_pla' must be a string");
    }
    valid = parse_pla_payload(v->as_string(), "valid_pla");
    if (valid.num_inputs() != train.num_inputs()) {
      throw RequestError("'valid_pla' input count differs from 'pla'");
    }
  }
  const auto seed = static_cast<std::uint64_t>(optional_int(
      request, "seed", kDefaultSeed, 0, INT64_MAX));

  // Model identity: the same content-hash recipe the contest's result
  // cache uses (datasets + seed + schema version), extended by who learns
  // and under which optimization request. Equal requests — across
  // connections, restarts, and replays — map to equal ids.
  const std::uint64_t valid_hash = valid.content_hash();
  std::uint64_t hash = suite::task_content_hash(
      0, seed, train.content_hash(), valid_hash, valid_hash);
  hash = core::hash_combine(
      hash, core::fnv1a(learner_name.data(), learner_name.size()));
  hash = core::hash_combine(hash, optimizer_->request().fingerprint());
  const std::string id = model_id_from_hash(hash);

  // Single-flight: under the store lock, a learn either finds the model,
  // joins the learn of it already in flight, or leads that learn. A leader
  // publishes to the store before it leaves the flight table, so no later
  // learn can miss both.
  ModelPtr model;
  std::promise<ModelPtr> promise;
  std::shared_future<ModelPtr> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    model = store_find_locked(id);
    if (model == nullptr) {
      const auto it = inflight_.find(id);
      if (it != inflight_.end()) {
        flight = it->second;
      } else {
        flight = promise.get_future().share();
        inflight_.emplace(id, flight);
        leader = true;
      }
    }
  }
  if (leader) {
    std::exception_ptr failure;
    try {
      model = disk_get(id, hash);
      if (model == nullptr) {
        // Cache hits are cheap enough to honor even past the deadline; an
        // actual refit is the phase a deadline exists to gate.
        if (deadline.expired()) {
          throw DeadlineExpired("learn started");
        }
        stats_.learns.add(1);
        core::Rng rng(hash);  // depends only on the request content hash
        const std::unique_ptr<learn::Learner> learner = factory.make();
        learn::TrainedModel trained = learner->fit(train, valid, rng);
        auto stored = std::make_shared<StoredModel>();
        stored->circuit = std::move(trained.circuit);
        stored->learner = learner_name;
        stored->method = std::move(trained.method);
        stored->train_acc = trained.train_acc;
        stored->valid_acc = trained.valid_acc;
        stored->verified = trained.verified;
        disk_put(id, hash, *stored, trained.synth_trace);
        store_put(id, stored);
        model = std::move(stored);
      }
    } catch (...) {
      failure = std::current_exception();
    }
    if (failure == nullptr) {
      promise.set_value(model);
    } else {
      promise.set_exception(failure);
    }
    {
      std::lock_guard<std::mutex> lock(store_mutex_);
      inflight_.erase(id);
    }
    if (failure != nullptr) {
      std::rethrow_exception(failure);
    }
  } else if (model == nullptr) {
    stats_.model_inflight_joins.add(1);
    model = flight.get();  // rethrows whatever failed the leader
  }

  Json r = response_base(request, "learn", true);
  r.set("model", id);
  r.set("learner", model->learner);
  r.set("method", model->method);
  r.set("train_acc", model->train_acc);
  r.set("valid_acc", model->valid_acc);
  r.set("ands", model->circuit.num_ands());
  r.set("levels", model->circuit.num_levels());
  r.set("inputs", model->circuit.num_pis());
  r.set("verified", synth::to_string(model->verified));
  return r;
}

// ------------------------------------------------------------------ eval

namespace {

static_assert(std::endian::native == std::endian::little,
              "minterm rows are packed eight bytes per little-endian load");

constexpr std::uint64_t kByteLows = 0x0101010101010101ULL;
/// Eight '0' characters as one word.
constexpr std::uint64_t kZeroChars = 0x3030303030303030ULL;

/// In-place transpose of a 64x64 bit matrix: bit j of m[i] trades places
/// with bit i of m[j]. Each stage swaps the off-diagonal blocks of every
/// 2j x 2j block, from 32 down to 1.
void transpose64(std::uint64_t* m) {
  std::uint64_t mask = 0x00000000ffffffffULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

std::string bits_to_string(const core::BitVec& bits, std::size_t offset,
                           std::size_t rows) {
  std::string text(rows, '0');
  for (std::size_t row = 0; row < rows; ++row) {
    if (bits.get(offset + row)) {
      text[row] = '1';
    }
  }
  return text;
}

}  // namespace

std::size_t decode_minterm_rows(const RowBlock& rows, std::size_t width,
                                std::vector<core::BitVec>* columns) {
  const std::size_t n = rows.rows();
  columns->assign(width, core::BitVec(n));
  // One 64x64 tile per 64 columns. A row packs into its tiles eight
  // characters per multiply; the transpose then turns 64 row words into
  // one 64-row word per column.
  const std::size_t tiles = (width + 63) / 64;
  std::vector<std::uint64_t> tile(tiles * 64);
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t count = std::min<std::size_t>(64, n - base);
    for (std::size_t i = 0; i < 64; ++i) {
      if (i >= count) {
        for (std::size_t t = 0; t < tiles; ++t) {
          tile[t * 64 + i] = 0;  // rows past the end stay zero
        }
        continue;
      }
      const std::size_t r = base + i;
      const std::string_view row = rows.row(r);
      if (!rows.is_string(r) || row.size() != width) {
        return r;
      }
      std::uint64_t bad = 0;
      for (std::size_t t = 0; t < tiles; ++t) {
        const char* chars = row.data() + t * 64;
        const std::size_t span = std::min<std::size_t>(64, width - t * 64);
        std::uint64_t word = 0;
        for (std::size_t k = 0; k < span; k += 8) {
          std::uint64_t x = kZeroChars;
          if (span - k >= 8) {
            std::memcpy(&x, chars + k, 8);
          } else {
            std::memcpy(&x, chars + k, span - k);
          }
          // Only '0' (0x30) and '1' (0x31) clear every bit but the lowest.
          bad |= (x & ~kByteLows) ^ kZeroChars;
          word |= (((x & kByteLows) * 0x0102040810204080ULL) >> 56) << k;
        }
        tile[t * 64 + i] = word;
      }
      if (bad != 0) {
        return r;
      }
    }
    for (std::size_t t = 0; t < tiles; ++t) {
      transpose64(&tile[t * 64]);
      const std::size_t span = std::min<std::size_t>(64, width - t * 64);
      for (std::size_t c = 0; c < span; ++c) {
        (*columns)[t * 64 + c].words()[base / 64] = tile[t * 64 + c];
      }
    }
  }
  return n;
}

Json Service::handle_eval(const Request& parsed) {
  const Json& request = parsed.json_;
  const std::string id = required_string(request, "model");
  std::uint64_t hash = 0;
  if (!model_hash_from_id(id, &hash)) {
    throw RequestError("'" + id +
                       "' is not a model id (expected m-<16 hex digits>)");
  }
  ModelPtr model = parsed.model_;
  if (model == nullptr) {
    model = store_get(id);
  }
  if (model == nullptr) {
    model = disk_get(id, hash);
  }
  if (model == nullptr) {
    throw RequestError("unknown model '" + id + "' (learn it first)");
  }

  // Rows arrive either as one flat "inputs" array or as a "batches" array
  // of row arrays; either way every row rides ONE SimEngine sweep. The
  // request holds an array member as an empty placeholder: its rows are in
  // the parsed request's row blocks, one group for "inputs" and one per
  // batch.
  const Json* inputs = optional_member(request, "inputs");
  const Json* batches = optional_member(request, "batches");
  if ((inputs == nullptr) == (batches == nullptr)) {
    throw RequestError(
        "request needs exactly one of 'inputs' (an array of minterm "
        "strings) or 'batches' (an array of such arrays)");
  }
  const RowBlock& block =
      inputs != nullptr ? parsed.inputs_ : parsed.batches_;
  if (inputs != nullptr) {
    if (!inputs->is_array() || block.rows() == 0) {
      throw RequestError("'inputs' must be a non-empty array");
    }
  } else {
    if (!batches->is_array() || block.groups() == 0) {
      throw RequestError("'batches' must be a non-empty array");
    }
    for (std::size_t b = 0; b < block.groups(); ++b) {
      if (!block.is_array(b) || block.group_begin(b) == block.group_end(b)) {
        throw RequestError("batches[" + std::to_string(b) +
                           "] must be a non-empty array of minterm strings");
      }
    }
  }
  const std::size_t total_rows = block.rows();
  if (total_rows > options_.max_eval_rows) {
    throw RequestError("request exceeds the per-request row cap (" +
                       std::to_string(options_.max_eval_rows) +
                       " rows summed over batches)");
  }

  const std::size_t num_pis = model->circuit.num_pis();
  std::vector<core::BitVec> columns;
  const std::size_t bad = decode_minterm_rows(block, num_pis, &columns);
  if (bad < total_rows) {
    // Name the row within its own array: "inputs[r]" or "batches[g][r]".
    std::size_t group = 0;
    while (block.group_end(group) <= bad) {
      ++group;
    }
    const std::string where =
        (inputs != nullptr ? "inputs"
                           : "batches[" + std::to_string(group) + "]") +
        "[" + std::to_string(bad - block.group_begin(group)) + "]";
    if (!block.is_string(bad) || block.row(bad).size() != num_pis) {
      throw RequestError(where + " must be a " + std::to_string(num_pis) +
                         "-character 0/1 string");
    }
    throw RequestError(where + " holds a character other than 0/1");
  }

  // One sweep over every row. The engine's word arena and the output
  // buffers are per thread and reused across requests; the engine only
  // borrows model->circuit for this call (bind() rebinds it every time),
  // so the thread_local outliving the model's shared_ptr is fine.
  thread_local aig::SimEngine engine;
  thread_local std::vector<core::BitVec> outputs;
  {
    stats_.eval_sweeps.add(1);
    obs::ScopedSpan sweep_span("sweep", "sim");
    std::vector<const core::BitVec*> ptrs(num_pis);
    for (std::size_t col = 0; col < num_pis; ++col) {
      ptrs[col] = &columns[col];
    }
    engine.bind(model->circuit);
    engine.run(ptrs);
    engine.outputs_into(&outputs);
  }
  stats_.evals.add(1);
  stats_.eval_rows.add(total_rows);

  Json r = response_base(request, "eval", true);
  r.set("model", id);
  r.set("rows", static_cast<std::int64_t>(total_rows));
  if (inputs != nullptr) {
    Json out = Json::array();
    for (const core::BitVec& bits : outputs) {
      out.push_back(Json(bits_to_string(bits, 0, total_rows)));
    }
    r.set("outputs", std::move(out));
  } else {
    Json out_batches = Json::array();
    for (std::size_t b = 0; b < block.groups(); ++b) {
      const std::size_t begin = block.group_begin(b);
      const std::size_t batch_rows = block.group_end(b) - begin;
      Json entry = Json::object();
      entry.set("rows", static_cast<std::int64_t>(batch_rows));
      Json out = Json::array();
      for (const core::BitVec& bits : outputs) {
        out.push_back(Json(bits_to_string(bits, begin, batch_rows)));
      }
      entry.set("outputs", std::move(out));
      out_batches.push_back(std::move(entry));
    }
    r.set("batches", std::move(out_batches));
  }
  return r;
}

// ----------------------------------------------------------------- synth

Json Service::handle_synth(const Json& request, const Deadline& deadline) {
  const aig::Aig in = parse_aag_payload(required_string(request, "aag"), "aag");
  // Per-request script, budgets, seed and verify over the op's own
  // defaults, so a request without a field gets the exact response it
  // always got regardless of what the daemon was started with.
  synth::OptRequest req;
  req.script = [&] {
    const Json* s = optional_member(request, "script");
    if (s == nullptr) {
      return std::string("resyn2");
    }
    if (!s->is_string()) {
      throw RequestError("'script' must be a string");
    }
    return s->as_string();
  }();
  try {
    req.validate();
  } catch (const std::exception& e) {
    throw RequestError(std::string("bad 'script': ") + e.what());
  }
  req.options.node_budget = static_cast<std::uint32_t>(
      optional_int(request, "max_gates", 5000, 0, 0xffffffffLL));
  req.options.max_rounds =
      static_cast<int>(optional_int(request, "rounds", 1, 1, 1000));
  req.options.approx_seed = static_cast<std::uint64_t>(optional_int(
      request, "seed", static_cast<std::int64_t>(req.options.approx_seed), 0,
      INT64_MAX));
  req.options.verify_equivalence = optional_bool(request, "verify", false);
  if (deadline.active()) {
    if (deadline.expired()) {
      throw DeadlineExpired("synth started");
    }
    // Map the remaining deadline onto the pass manager's existing soft
    // time budget; such runs bypass the process memo by design.
    req.options.time_budget_ms = deadline.remaining_ms();
  }
  const synth::OptOutcome out = optimizer_->optimize(in, req);

  stats_.synths.add(1);
  Json r = response_base(request, "synth", true);
  r.set("script", req.script_display());
  r.set("ands_in", out.result.ands_in());
  r.set("ands", out.result.circuit.num_ands());
  r.set("levels", out.result.circuit.num_levels());
  r.set("verified", synth::to_string(out.result.verify));
  // Wall times stay out of the trace: responses must be bit-identical
  // across replays (the ms column is observable via the CLI instead).
  Json trace = Json::array();
  for (const synth::PassStats& pass : out.result.trace) {
    Json p = Json::object();
    p.set("pass", pass.pass);
    p.set("ands_before", pass.ands_before);
    p.set("ands_after", pass.ands_after);
    p.set("levels_before", pass.levels_before);
    p.set("levels_after", pass.levels_after);
    trace.push_back(std::move(p));
  }
  r.set("trace", std::move(trace));
  r.set("aag", aag_to_string(out.result.circuit));
  return r;
}

// ------------------------------------------------------------------- cec

Json Service::handle_cec(const Json& request, const Deadline& deadline) {
  const aig::Aig a = parse_aag_payload(required_string(request, "a"), "a");
  const aig::Aig b = parse_aag_payload(required_string(request, "b"), "b");
  sat::CecLimits limits;
  limits.conflict_budget =
      optional_int(request, "conflicts", kCecConflictBudget, 0, INT64_MAX);
  stats_.cecs.add(1);

  Json r = response_base(request, "cec", true);
  if (deadline.active()) {
    const std::int64_t remaining = deadline.remaining_ms();
    if (remaining <= 0) {
      // A blown deadline degrades to the verdict a blown SAT budget gives:
      // undecided, never a wrong answer and never a stalled worker.
      stats_.deadline_expired.add(1);
      r.set("verdict", "undecided");
      r.set("expired", true);
      return r;
    }
    const std::int64_t cap = remaining * kCecConflictsPerMs;
    if (limits.conflict_budget == 0 || limits.conflict_budget > cap) {
      limits.conflict_budget = cap;
    }
  }
  sat::CecResult result;
  try {
    result = sat::cec(a, b, limits);
  } catch (const std::invalid_argument& e) {
    throw RequestError(e.what());  // PI/output shape mismatch
  }
  switch (result.status) {
    case sat::CecStatus::kEquivalent:
      r.set("verdict", "equivalent");
      break;
    case sat::CecStatus::kNotEquivalent: {
      r.set("verdict", "not_equivalent");
      std::string cube;
      for (const std::uint8_t v : result.counterexample) {
        cube += v != 0 ? '1' : '0';
      }
      r.set("counterexample", cube);
      r.set("failing_output",
            static_cast<std::int64_t>(result.failing_output));
      break;
    }
    case sat::CecStatus::kUndecided:
      r.set("verdict", "undecided");
      break;
  }
  r.set("conflicts",
        static_cast<std::int64_t>(result.solver_stats.conflicts));
  return r;
}

// ------------------------------------------------------------ ping/stats

Json Service::handle_ping(const Json& request, const Deadline& deadline) {
  if (deadline.expired()) {
    throw DeadlineExpired("ping ran");
  }
  const std::int64_t sleep_ms =
      optional_int(request, "sleep_ms", 0, 0, kMaxPingSleepMs);
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  stats_.pings.add(1);
  return response_base(request, "ping", true);
}

Json Service::handle_stats() {
  Json r = response_base(Json(), "stats", true);
  for (const StatCounter& c : kStatCounters) {
    r.set(c.key, static_cast<std::int64_t>((stats_.*c.member).load()));
  }
  r.set("models_cached", static_cast<std::int64_t>(models_cached()));
  r.set("models_cached_bytes",
        static_cast<std::int64_t>(models_cached_bytes()));
  r.set("synth_memo_hits",
        static_cast<std::int64_t>(synth::PassManager::memo_hits()));
  r.set("pipeline", optimizer_->request().script_display());
  return r;
}

Json Service::handle_metrics(const Json& request) {
  // Prometheus text exposition of the whole process registry: this
  // Service's aliased counters/histograms plus the sim/synth/sat/suite
  // subsystem families. Like `stats`, intentionally non-deterministic and
  // excluded from the replay contract.
  Json r = response_base(request, "metrics", true);
  r.set("content_type", "text/plain; version=0.0.4");
  r.set("text", obs::Registry::instance().expose_prometheus());
  return r;
}

// ------------------------------------------------------------ model store

namespace {

/// Approximate resident size of a stored model (byte-budget accounting;
/// exactness does not matter, monotonicity in circuit size does).
std::size_t model_bytes(const StoredModel& m) {
  return sizeof(StoredModel) + m.learner.size() + m.method.size() +
         static_cast<std::size_t>(m.circuit.num_nodes()) * 16 + 64;
}

}  // namespace

Service::ModelPtr Service::store_find_locked(const std::string& id) {
  const auto it = store_.find(id);
  if (it == store_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  stats_.model_memory_hits.add(1);
  return it->second.model;
}

Service::ModelPtr Service::store_get(const std::string& id) {
  std::lock_guard<std::mutex> lock(store_mutex_);
  return store_find_locked(id);
}

void Service::store_put(const std::string& id, ModelPtr m) {
  if (options_.model_capacity == 0) {
    return;
  }
  const std::size_t bytes = model_bytes(*m);
  std::lock_guard<std::mutex> lock(store_mutex_);
  const auto it = store_.find(id);
  if (it != store_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    store_bytes_ += bytes - it->second.bytes;
    it->second.model = std::move(m);
    it->second.bytes = bytes;
  } else {
    lru_.push_front(id);
    store_.emplace(id, StoreEntry{lru_.begin(), std::move(m), bytes});
    store_bytes_ += bytes;
  }
  while (!lru_.empty() &&
         (store_.size() > options_.model_capacity ||
          (options_.model_store_bytes > 0 &&
           store_bytes_ > options_.model_store_bytes))) {
    const auto victim = store_.find(lru_.back());
    store_bytes_ -= victim->second.bytes;
    store_.erase(victim);
    lru_.pop_back();
    stats_.model_evictions.add(1);
  }
}

std::size_t Service::models_cached() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  return store_.size();
}

std::size_t Service::models_cached_bytes() const {
  std::lock_guard<std::mutex> lock(store_mutex_);
  return store_bytes_;
}

Service::ModelPtr Service::disk_get(
    const std::string& id, std::uint64_t content_hash) {
  if (!disk_cache_.enabled()) {
    return nullptr;
  }
  const std::optional<suite::CachedTask> task =
      disk_cache_.load("models", id, content_hash);
  if (!task.has_value()) {
    return nullptr;
  }
  auto stored = std::make_shared<StoredModel>();
  try {
    std::istringstream is(task->aag);
    stored->circuit = aig::read_aag(is);
  } catch (const std::exception&) {
    return nullptr;  // corrupt entry: treat as a plain miss
  }
  stored->method = task->result.method;
  // The learner name is recoverable from the method only heuristically, so
  // the cache stores it in the benchmark row's `benchmark` companion
  // field; see disk_put. BenchmarkResult::benchmark holds the learner.
  stored->learner = task->result.benchmark;
  stored->train_acc = task->result.train_acc;
  stored->valid_acc = task->result.valid_acc;
  stored->verified = task->result.verified;
  stats_.model_disk_hits.add(1);
  store_put(id, stored);
  return stored;
}

void Service::disk_put(const std::string& id, std::uint64_t content_hash,
                       const StoredModel& model,
                       const std::vector<synth::PassStats>& trace) {
  if (!disk_cache_.enabled()) {
    return;
  }
  suite::CachedTask task;
  task.result.benchmark_id = 0;
  task.result.benchmark = model.learner;  // see disk_get
  task.result.method = model.method;
  task.result.train_acc = model.train_acc;
  task.result.valid_acc = model.valid_acc;
  task.result.test_acc = model.valid_acc;
  task.result.num_ands = model.circuit.num_ands();
  task.result.num_levels = model.circuit.num_levels();
  task.result.synth_trace = trace;
  task.result.verified = model.verified;
  task.aag = aag_to_string(model.circuit);
  disk_cache_.store("models", id, content_hash, task);
}

// ----------------------------------------------------------------- stdio

std::uint64_t Service::serve_stream(std::istream& in, std::ostream& out,
                                    std::size_t max_request_bytes) {
  std::uint64_t answered = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    std::string response;
    if (max_request_bytes > 0 && line.size() > max_request_bytes) {
      stats_.requests.add(1);
      stats_.errors.add(1);
      Json r = Json::object();
      r.set("ok", false);
      r.set("error", "request exceeds --max-request-bytes (" +
                         std::to_string(max_request_bytes) + ")");
      response = r.dump();
    } else {
      response = handle_line(line);
    }
    out << response << '\n' << std::flush;
    ++answered;
  }
  return answered;
}

}  // namespace lsml::server
