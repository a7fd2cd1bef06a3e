#include "server/service.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
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
  std::size_t shards = options_.store_shards == 0 ? 1 : options_.store_shards;
  std::size_t pow2 = 1;
  while (pow2 < shards) {
    pow2 <<= 1;
  }
  shards_.reserve(pow2);
  for (std::size_t i = 0; i < pow2; ++i) {
    shards_.push_back(std::make_unique<StoreShard>());
  }
  shard_mask_ = pow2 - 1;
  register_metrics();
}

void Service::register_metrics() {
  obs::Registry& reg = obs::Registry::instance();
  const auto alias = [&](const char* name, const obs::Counter& c) {
    metric_regs_.push_back(reg.register_counter(name, &c));
  };
  alias("lsml_server_requests_total", stats_.requests);
  alias("lsml_server_errors_total", stats_.errors);
  alias("lsml_server_learns_total", stats_.learns);
  alias("lsml_server_model_memory_hits_total", stats_.model_memory_hits);
  alias("lsml_server_model_disk_hits_total", stats_.model_disk_hits);
  alias("lsml_server_model_inflight_joins_total",
        stats_.model_inflight_joins);
  alias("lsml_server_model_evictions_total", stats_.model_evictions);
  alias("lsml_server_evals_total", stats_.evals);
  alias("lsml_server_eval_sweeps_total", stats_.eval_sweeps);
  alias("lsml_server_eval_coalesced_total", stats_.eval_coalesced);
  alias("lsml_server_eval_rows_total", stats_.eval_rows);
  alias("lsml_server_synths_total", stats_.synths);
  alias("lsml_server_cecs_total", stats_.cecs);
  alias("lsml_server_pings_total", stats_.pings);
  alias("lsml_server_deadline_expired_total", stats_.deadline_expired);
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

std::string Service::handle_line(const std::string& line) {
  return handle_line(line, std::chrono::steady_clock::now());
}

std::string Service::handle_line(
    const std::string& line,
    std::chrono::steady_clock::time_point received_at) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  // Queue wait: transport frame time -> this worker picking the line up.
  const auto picked_up = std::chrono::steady_clock::now();
  if (picked_up >= received_at) {
    queue_wait_ns_.record(ns_since(received_at, picked_up));
    if (obs::Tracer::enabled()) {
      obs::Tracer::record("queue_wait", "server", received_at, picked_up);
    }
  }
  Json request;
  // Minterm rows skip the tree: the parser packs them into these blocks.
  EvalRows rows;
  const RowCapture captures[] = {{"inputs", false, &rows.inputs},
                                 {"batches", true, &rows.batches}};
  try {
    {
      obs::ScopedSpan parse_span("parse", "server");
      request = Json::parse(line, captures);
    }
    if (!request.is_object()) {
      throw RequestError("request must be a JSON object");
    }
    Deadline deadline;
    deadline.received_at = received_at;
    deadline.budget_ms =
        optional_int(request, "deadline_ms", 0, 0, 24LL * 3600 * 1000);
    Json response = dispatch(request, rows, deadline);
    obs::ScopedSpan serialize_span("serialize", "server");
    return response.dump();
  } catch (const DeadlineExpired& e) {
    stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    Json r = response_base(request, "error", false);
    r.set("error", e.what());
    r.set("expired", true);
    return r.dump();
  } catch (const std::exception& e) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    Json r = response_base(request, "error", false);
    r.set("error", e.what());
    return r.dump();
  }
}

Json Service::dispatch(const Json& request, const EvalRows& rows,
                       const Deadline& deadline) {
  const std::string type = required_string(request, "type");
  std::size_t op = kNumOps;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    if (type == kOpNames[i]) {
      op = i;
      break;
    }
  }
  if (op == kNumOps) {
    throw RequestError(
        "unknown request type '" + type +
        "' (expected learn, eval, synth, cec, ping, stats, or metrics)");
  }
  // The per-request span and latency histogram wrap the whole handler;
  // nested spans (sweep, synth passes, SAT solving) land inside it.
  obs::ScopedSpan op_span(kOpNames[op], "server");
  const auto start = std::chrono::steady_clock::now();
  Json response = [&]() -> Json {
    switch (op) {
      case 0:
        return handle_learn(request, deadline);
      case 1:
        return handle_eval(request, rows);
      case 2:
        return handle_synth(request, deadline);
      case 3:
        return handle_cec(request, deadline);
      case 4:
        return handle_ping(request, deadline);
      case 5:
        return handle_stats();
      default:
        return handle_metrics(request);
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
      request, "seed", static_cast<std::int64_t>(options_.default_seed), 0,
      INT64_MAX));

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

  std::shared_ptr<const StoredModel> model = store_get(id);
  if (model == nullptr) {
    // Single-flight: concurrent identical learns elect one leader; the
    // rest wait on its future instead of refitting N times on a cold
    // server (the store alone cannot close that window).
    std::promise<std::shared_ptr<const StoredModel>> promise;
    std::shared_future<std::shared_ptr<const StoredModel>> shared;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      const auto it = inflight_.find(id);
      if (it != inflight_.end()) {
        shared = it->second;
      } else {
        shared = promise.get_future().share();
        inflight_.emplace(id, shared);
        leader = true;
      }
    }
    if (!leader) {
      stats_.model_inflight_joins.fetch_add(1, std::memory_order_relaxed);
      model = shared.get();  // rethrows whatever failed the leader
    } else {
      std::exception_ptr failure;
      try {
        // Re-check both cache levels now that this thread owns the
        // flight: a leader that just finished published to the store
        // *before* leaving the table, so this lookup cannot miss its
        // result.
        model = store_get(id);
        if (model == nullptr) {
          model = disk_get(id, hash);
        }
        if (model == nullptr) {
          // Cache hits are cheap enough to honor even past the deadline;
          // an actual refit is the phase a deadline exists to gate.
          if (deadline.expired()) {
            throw DeadlineExpired("learn started");
          }
          stats_.learns.fetch_add(1, std::memory_order_relaxed);
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
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        inflight_.erase(id);
      }
      if (failure != nullptr) {
        std::rethrow_exception(failure);
      }
    }
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

/// Copies `n` bits from src[src_off..] to dst[dst_off..]. Word-blasts when
/// both offsets are word-aligned (the common case: coalesced batches whose
/// row counts are multiples of 64).
void copy_bits(core::BitVec* dst, std::size_t dst_off, const core::BitVec& src,
               std::size_t src_off, std::size_t n) {
  if (dst_off % 64 == 0 && src_off % 64 == 0) {
    const std::size_t words = n / 64;
    for (std::size_t w = 0; w < words; ++w) {
      dst->words()[dst_off / 64 + w] = src.words()[src_off / 64 + w];
    }
    dst_off += words * 64;
    src_off += words * 64;
    n -= words * 64;
  }
  for (std::size_t i = 0; i < n; ++i) {
    dst->set(dst_off + i, src.get(src_off + i));
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

void Service::sweep_jobs(const StoredModel& model,
                         const std::vector<std::shared_ptr<EvalJob>>& batch) {
  const std::size_t num_pis = model.circuit.num_pis();
  stats_.eval_sweeps.fetch_add(1, std::memory_order_relaxed);
  obs::ScopedSpan sweep_span("sweep", "sim");
  // Per-transport-thread scratch: the engine's word arena and the combined
  // column/output buffers are reused across requests instead of
  // reallocated per sweep. The engine only borrows model.circuit for the
  // duration of this call (bind() rebinds it every time), so the
  // thread_local outliving the model's shared_ptr is fine.
  thread_local aig::SimEngine engine;
  thread_local std::vector<core::BitVec> combined;
  thread_local std::vector<core::BitVec> combined_outputs;
  engine.bind(model.circuit);
  if (batch.size() == 1) {
    // One job: sweep its columns in place, no concatenation.
    EvalJob& job = *batch.front();
    std::vector<const core::BitVec*> ptrs(num_pis);
    for (std::size_t col = 0; col < num_pis; ++col) {
      ptrs[col] = &job.columns[col];
    }
    engine.run(ptrs);
    engine.outputs_into(&job.outputs);
    return;
  }
  // Concatenate every job's rows into combined columns, sweep once, then
  // scatter each job's slice of the combined outputs back. Outputs are a
  // pure per-row function of the inputs, so slices are byte-identical to
  // what a solo sweep of that job would produce.
  std::size_t total = 0;
  for (const auto& job : batch) {
    total += job->rows;
  }
  combined.resize(num_pis);
  for (auto& column : combined) {
    column.reset(total);
  }
  std::size_t offset = 0;
  for (const auto& job : batch) {
    for (std::size_t col = 0; col < num_pis; ++col) {
      copy_bits(&combined[col], offset, job->columns[col], 0, job->rows);
    }
    offset += job->rows;
  }
  std::vector<const core::BitVec*> ptrs(num_pis);
  for (std::size_t col = 0; col < num_pis; ++col) {
    ptrs[col] = &combined[col];
  }
  engine.run(ptrs);
  engine.outputs_into(&combined_outputs);
  offset = 0;
  for (const auto& job : batch) {
    job->outputs.assign(combined_outputs.size(), core::BitVec(job->rows));
    for (std::size_t o = 0; o < combined_outputs.size(); ++o) {
      copy_bits(&job->outputs[o], 0, combined_outputs[o], offset, job->rows);
    }
    offset += job->rows;
  }
}

void Service::run_eval_job(const std::string& id, const StoredModel& model,
                           const std::shared_ptr<EvalJob>& job) {
  if (!options_.coalesce_evals) {
    sweep_jobs(model, {job});
    return;
  }
  std::unique_lock<std::mutex> lock(eval_mutex_);
  std::shared_ptr<EvalFlight>& slot = eval_flights_[id];
  if (slot == nullptr) {
    slot = std::make_shared<EvalFlight>();
  }
  // Keep the flight alive past a possible table erase by the leader.
  const std::shared_ptr<EvalFlight> flight = slot;
  if (flight->running) {
    // Follower: enqueue and ride the leader's next combined sweep.
    flight->waiting.push_back(job);
    stats_.eval_coalesced.fetch_add(1, std::memory_order_relaxed);
    flight->cv.wait(lock, [&] { return job->done; });
    return;
  }
  flight->running = true;
  lock.unlock();
  if (before_leader_sweep_) {
    before_leader_sweep_();
  }
  // Leader: sweep own rows immediately (coalescing never adds latency to
  // an uncontended eval), then serve rounds of followers that piled up.
  sweep_jobs(model, {job});
  while (true) {
    lock.lock();
    job->done = true;
    if (flight->waiting.empty()) {
      flight->running = false;
      const auto it = eval_flights_.find(id);
      if (it != eval_flights_.end() && it->second == flight) {
        eval_flights_.erase(it);  // keep the table to in-flight ids only
      }
      return;
    }
    std::vector<std::shared_ptr<EvalJob>> round;
    round.swap(flight->waiting);
    lock.unlock();
    sweep_jobs(model, round);
    lock.lock();
    for (const auto& j : round) {
      j->done = true;
    }
    flight->cv.notify_all();
    lock.unlock();
  }
}

Json Service::handle_eval(const Json& request, const EvalRows& rows) {
  const std::string id = required_string(request, "model");
  std::uint64_t hash = 0;
  if (!model_hash_from_id(id, &hash)) {
    throw RequestError("'" + id +
                       "' is not a model id (expected m-<16 hex digits>)");
  }
  std::shared_ptr<const StoredModel> model = store_get(id);
  if (model == nullptr) {
    model = disk_get(id, hash);
  }
  if (model == nullptr) {
    throw RequestError("unknown model '" + id + "' (learn it first)");
  }

  // Rows arrive either as one flat "inputs" array or as a "batches" array
  // of row arrays; either way every row rides ONE SimEngine sweep. The
  // request holds an array member as an empty placeholder: its rows are in
  // `rows`, one group for "inputs" and one per batch.
  const Json* inputs = optional_member(request, "inputs");
  const Json* batches = optional_member(request, "batches");
  if ((inputs == nullptr) == (batches == nullptr)) {
    throw RequestError(
        "request needs exactly one of 'inputs' (an array of minterm "
        "strings) or 'batches' (an array of such arrays)");
  }
  const RowBlock& block = inputs != nullptr ? rows.inputs : rows.batches;
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
  auto job = std::make_shared<EvalJob>();
  job->rows = total_rows;
  const std::size_t bad = decode_minterm_rows(block, num_pis, &job->columns);
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

  run_eval_job(id, *model, job);
  stats_.evals.fetch_add(1, std::memory_order_relaxed);
  stats_.eval_rows.fetch_add(total_rows, std::memory_order_relaxed);

  Json r = response_base(request, "eval", true);
  r.set("model", id);
  r.set("rows", static_cast<std::int64_t>(total_rows));
  if (inputs != nullptr) {
    Json out = Json::array();
    for (const core::BitVec& bits : job->outputs) {
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
      for (const core::BitVec& bits : job->outputs) {
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
  // Per-request overrides on top of the installed request: script (or
  // "auto", which searches with the construction-time experience
  // snapshot), budgets, seed, verify. The options reset to the op's own
  // defaults first, so a request without a field gets the exact response
  // it always got regardless of what the daemon was started with.
  synth::OptRequest req = optimizer_->request();
  req.options = synth::SynthOptions{};
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
  if (optional_member(request, "seed") != nullptr) {
    // One seed field steers both randomized approximation and the auto
    // search stream.
    req.search_seed = req.options.approx_seed;
  }
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

  stats_.synths.fetch_add(1, std::memory_order_relaxed);
  Json r = response_base(request, "synth", true);
  r.set("script", out.script.str());
  if (req.is_auto()) {
    // The winner's identity, only when the caller asked for search —
    // fixed-script responses stay byte-identical to older builds.
    char fp[17];
    std::snprintf(fp, sizeof fp, "%016" PRIx64, out.script.fingerprint());
    r.set("script_fp", std::string(fp));
  }
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
  limits.conflict_budget = optional_int(request, "conflicts",
                                        options_.cec_conflict_budget, 0,
                                        INT64_MAX);
  stats_.cecs.fetch_add(1, std::memory_order_relaxed);

  Json r = response_base(request, "cec", true);
  if (deadline.active()) {
    const std::int64_t remaining = deadline.remaining_ms();
    if (remaining <= 0) {
      // A blown deadline degrades to the verdict a blown SAT budget gives:
      // undecided, never a wrong answer and never a stalled worker.
      stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
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
  const std::int64_t sleep_ms = optional_int(request, "sleep_ms", 0, 0,
                                             options_.max_ping_sleep_ms);
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  stats_.pings.fetch_add(1, std::memory_order_relaxed);
  return response_base(request, "ping", true);
}

Json Service::handle_stats() {
  Json r = response_base(Json(), "stats", true);
  const auto get = [](const obs::Counter& c) {
    return static_cast<std::int64_t>(c.load());
  };
  r.set("requests", get(stats_.requests));
  r.set("errors", get(stats_.errors));
  r.set("learns", get(stats_.learns));
  r.set("model_memory_hits", get(stats_.model_memory_hits));
  r.set("model_disk_hits", get(stats_.model_disk_hits));
  r.set("model_inflight_joins", get(stats_.model_inflight_joins));
  r.set("model_evictions", get(stats_.model_evictions));
  r.set("evals", get(stats_.evals));
  r.set("eval_sweeps", get(stats_.eval_sweeps));
  r.set("eval_coalesced", get(stats_.eval_coalesced));
  r.set("eval_rows", get(stats_.eval_rows));
  r.set("synths", get(stats_.synths));
  r.set("cecs", get(stats_.cecs));
  r.set("pings", get(stats_.pings));
  r.set("deadline_expired", get(stats_.deadline_expired));
  r.set("models_cached", static_cast<std::int64_t>(models_cached()));
  r.set("models_cached_bytes",
        static_cast<std::int64_t>(models_cached_bytes()));
  r.set("store_shards", static_cast<std::int64_t>(shards_.size()));
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

Service::StoreShard& Service::shard_for(const std::string& id) {
  return *shards_[core::fnv1a(id.data(), id.size()) & shard_mask_];
}

std::shared_ptr<const StoredModel> Service::store_get(const std::string& id) {
  StoreShard& shard = shard_for(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(id);
  if (it == shard.map.end()) {
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  it->second.stamp =
      store_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  stats_.model_memory_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.model;
}

void Service::store_put(const std::string& id,
                        std::shared_ptr<const StoredModel> m) {
  if (options_.model_capacity == 0) {
    return;
  }
  const std::size_t bytes = model_bytes(*m);
  StoreShard& shard = shard_for(id);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(id);
    const std::uint64_t stamp =
        store_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      store_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
      store_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      it->second.model = std::move(m);
      it->second.bytes = bytes;
      it->second.stamp = stamp;
    } else {
      shard.lru.push_front(id);
      StoreShard::Entry entry;
      entry.lru_it = shard.lru.begin();
      entry.model = std::move(m);
      entry.bytes = bytes;
      entry.stamp = stamp;
      shard.map.emplace(id, std::move(entry));
      store_entries_.fetch_add(1, std::memory_order_relaxed);
      store_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
  }
  store_evict_to_budget();
}

void Service::store_evict_to_budget() {
  while (true) {
    const bool over_entries =
        store_entries_.load(std::memory_order_relaxed) >
        options_.model_capacity;
    const bool over_bytes =
        options_.model_store_bytes > 0 &&
        store_bytes_.load(std::memory_order_relaxed) >
            options_.model_store_bytes;
    if (!over_entries && !over_bytes) {
      return;
    }
    // Global LRU across shards: every shard's tail is its least-recent
    // entry, so the globally oldest stamp among tails is the LRU victim.
    // Shards are inspected one lock at a time; concurrent bumps make this
    // approximate, never unsafe.
    StoreShard* victim = nullptr;
    std::uint64_t oldest = UINT64_MAX;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      if (shard->lru.empty()) {
        continue;
      }
      const std::uint64_t stamp = shard->map.at(shard->lru.back()).stamp;
      if (stamp < oldest) {
        oldest = stamp;
        victim = shard.get();
      }
    }
    if (victim == nullptr) {
      return;  // nothing left to evict
    }
    std::lock_guard<std::mutex> lock(victim->mutex);
    if (victim->lru.empty()) {
      continue;
    }
    const auto it = victim->map.find(victim->lru.back());
    store_entries_.fetch_sub(1, std::memory_order_relaxed);
    store_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    victim->map.erase(it);
    victim->lru.pop_back();
    stats_.model_evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t Service::models_cached() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

std::shared_ptr<const StoredModel> Service::disk_get(
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
  stats_.model_disk_hits.fetch_add(1, std::memory_order_relaxed);
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
      stats_.requests.fetch_add(1, std::memory_order_relaxed);
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
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
