#pragma once
// The learning-as-a-service request handler behind `lsml serve`.
//
// A Service is the transport-agnostic core of the daemon: it maps one
// request line (newline-delimited JSON, see README "Serving") to one
// response line, reusing every layer built so far —
//
//   learn  PLA payload -> learn::LearnerFactory -> TrainedModel, optimized
//          through the installed synth::OptRequest (and SAT-verified when
//          the request's SynthOptions say so)
//   eval   model id + minterm rows -> packed-simulation outputs. One
//          request may carry many row batches ("batches"); they all ride
//          one SimEngine sweep. The rows never become Json values: the
//          request parse packs them into a RowBlock (bytes back to back
//          plus one end offset per row), and decode_minterm_rows
//          transposes that block into PI columns, 64 rows by 64 columns
//          at a time. The row cap is checked on the row count before any
//          column is allocated.
//   synth  AIGER text + script string (preset or pass list) -> optimized
//          AIGER + pass trace
//   cec    two AIGER payloads -> verdict + counterexample cube
//   ping   liveness (optional server-side sleep, for load/deadline tests)
//   stats  service counters (intentionally non-deterministic, like metrics)
//   metrics  Prometheus text exposition of the process obs::Registry
//
// Parse, then execute: handle_line is parse() followed by execute(). A
// transport that routes requests (the TCP server runs what
// prepare_inline() accepts on its event loops and the rest on its pool)
// calls them itself and hands the parsed Request across threads, so no
// line is parsed twice.
//
// Model store: learned circuits live in a sharded LRU keyed by a content
// hash over (datasets, learner, seed, request fingerprint) — the same
// Dataset::content_hash / task_content_hash machinery that keys the
// contest's on-disk suite::ResultCache. Shards are selected by model-id
// hash, each with its own mutex + recency list, so concurrent learns and
// evals on different models never contend on one lock; eviction follows a
// global LRU order (a logical access clock) under a global entry capacity
// and optional byte budget. The ResultCache doubles as the store's second
// level when `cache_dir` is set: a restarted server serves `learn` and
// `eval` requests for already-learned models without refitting.
//
// Determinism contract: every response except `stats` is a pure function
// of the request (given a fixed installed OptRequest), with no wall times
// or cache-hit markers in the body — so N concurrent clients replaying a
// request set get byte-identical lines to a serial replay. Hit counts are
// observable through `stats` instead.
//
// Thread safety: parse, prepare_inline, execute and handle_line are safe
// to call from any number of threads (the store shards and the counters
// are internally synchronized; the synth memo and learner stack are
// already thread-safe).
// Install the process synth::OptRequest (synth::set_default_opt_request)
// BEFORE constructing a Service: the constructor snapshots the installed
// optimizer for model-id fingerprints and synth dispatch, and learners
// read it concurrently afterwards.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "core/bits.hpp"
#include "obs/registry.hpp"
#include "server/json.hpp"
#include "suite/result_cache.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script_search.hpp"

namespace lsml::server {

struct ServiceOptions {
  /// Global entry capacity of the in-memory model store (0 disables it).
  std::size_t model_capacity = 64;
  /// Global byte budget of the in-memory model store (0 = entries only).
  std::size_t model_store_bytes = 0;
  /// Store shard count (rounded up to a power of two).
  std::size_t store_shards = 8;
  /// On-disk second level (a suite::ResultCache); empty disables it.
  std::string cache_dir;
  /// Contest seed used when a learn request does not send one.
  std::uint64_t default_seed = 2020;
  /// Default SAT conflict budget of a cec request (0 = unlimited).
  std::int64_t cec_conflict_budget = 100000;
  /// Row cap of one eval request, summed over its batches.
  std::size_t max_eval_rows = 1u << 20;
  /// Cap on ping's optional server-side sleep.
  std::int64_t max_ping_sleep_ms = 60000;
};

/// Per-request deadline: a budget in milliseconds counted from the moment
/// the transport finished reading the request line (so time spent queued
/// behind busy workers counts). budget_ms == 0 means "no deadline".
struct Deadline {
  std::chrono::steady_clock::time_point received_at{};
  std::int64_t budget_ms = 0;

  [[nodiscard]] bool active() const { return budget_ms > 0; }
  [[nodiscard]] std::int64_t elapsed_ms() const;
  /// Remaining budget, clamped at 0; meaningless unless active().
  [[nodiscard]] std::int64_t remaining_ms() const;
  [[nodiscard]] bool expired() const { return active() && remaining_ms() <= 0; }
};

/// Monotonic counters; every field is updated atomically and readable at
/// any time (the `stats` request serializes them). The fields are
/// obs::Counter (a striped drop-in for std::atomic<std::uint64_t>), and
/// every Service registers them into the process obs::Registry under
/// lsml_server_* names for the `metrics` op — the same cells back both
/// views, so `stats` and `metrics` can never disagree.
struct ServiceStats {
  obs::Counter requests;
  obs::Counter errors;  ///< ok:false responses
  obs::Counter learns;  ///< learn requests that refit
  obs::Counter model_memory_hits;
  obs::Counter model_disk_hits;
  /// Requests that waited on a concurrent identical learn instead of
  /// refitting (single-flight).
  obs::Counter model_inflight_joins;
  obs::Counter model_evictions;
  obs::Counter evals;
  /// SimEngine sweeps run for eval requests: one per eval, however many
  /// batches it carries.
  obs::Counter eval_sweeps;
  obs::Counter eval_rows;
  obs::Counter synths;
  obs::Counter cecs;
  obs::Counter pings;
  obs::Counter deadline_expired;
};

/// A learned circuit as the store keeps it (immutable once published).
struct StoredModel {
  aig::Aig circuit{0};
  std::string learner;
  std::string method;
  double train_acc = 0.0;
  double valid_acc = 0.0;
  synth::VerifyStatus verified = synth::VerifyStatus::kNotRequested;
};

class Service {
 public:
  /// Request ops with per-op latency histograms; order matches the
  /// kOpNames table in service.cpp.
  static constexpr std::size_t kNumOps = 7;

  explicit Service(ServiceOptions options = {});

  /// One request line after parse(): its Json tree, the minterm rows the
  /// parse packed past that tree, its deadline clock and its op, or the
  /// error the line already failed with (execute() answers it).
  class Request {
   private:
    friend class Service;
    Json json_;
    RowBlock inputs_;   ///< top-level "inputs": one group
    RowBlock batches_;  ///< top-level "batches": one group per batch
    Deadline deadline_;
    std::size_t op_ = kNumOps;  ///< index into the op table once known
    std::exception_ptr error_;  ///< what parsing threw, if anything
    /// When parse() started and ended: the queue wait is the time from
    /// deadline_.received_at to parse_begin_, plus the time from
    /// parse_end_ to execute() when the request waited for a worker.
    std::chrono::steady_clock::time_point parse_begin_{};
    std::chrono::steady_clock::time_point parse_end_{};
    /// An eval's model, when prepare_inline() found it in memory.
    std::shared_ptr<const StoredModel> model_;
    bool deferred_ = false;  ///< prepare_inline() sent it to a worker
  };

  /// Parses one request line; never throws. `received_at` stamps the
  /// deadline clock.
  [[nodiscard]] Request parse(const std::string& line,
                              std::chrono::steady_clock::time_point
                                  received_at) const;
  /// Says whether a parsed request may run on the caller's event loop,
  /// where it must never block: eval on a model already in memory (looked
  /// up here and kept in the request), stats, metrics, a ping without
  /// `sleep_ms`, and every line that failed to parse. learn, synth, cec, a
  /// sleeping ping and an eval whose model would have to be read from the
  /// disk level go to a worker instead. An inline eval costs time in
  /// proportion to its rows times the model's size; the caller bounds the
  /// rows by bounding the line length.
  [[nodiscard]] bool prepare_inline(Request& request);
  /// Answers a parsed request; never throws. The returned response line
  /// carries no trailing newline.
  [[nodiscard]] std::string execute(const Request& request);

  /// parse() then execute(). The overload without `received_at` uses
  /// "now" (stdio mode, tests).
  [[nodiscard]] std::string handle_line(
      const std::string& line, std::chrono::steady_clock::time_point
                                   received_at);
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// NDJSON loop over streams — the `lsml serve --stdio` transport and the
  /// easiest test harness. Empty lines are skipped; lines longer than
  /// `max_request_bytes` are answered with an error (and not parsed).
  /// Returns the number of requests answered.
  std::uint64_t serve_stream(std::istream& in, std::ostream& out,
                             std::size_t max_request_bytes);

  [[nodiscard]] const ServiceStats& stats() const { return stats_; }
  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  /// The optimizer snapshot taken at construction (what learn requests run
  /// under and what model ids fingerprint).
  [[nodiscard]] const synth::OptRequest& opt_request() const {
    return optimizer_->request();
  }

  /// In-memory model count across all shards (tests assert LRU eviction
  /// through this).
  [[nodiscard]] std::size_t models_cached() const;
  /// Approximate resident bytes of the in-memory store.
  [[nodiscard]] std::size_t models_cached_bytes() const {
    return store_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// One independently locked slice of the model store.
  struct StoreShard {
    struct Entry {
      std::list<std::string>::iterator lru_it;
      std::shared_ptr<const StoredModel> model;
      std::size_t bytes = 0;
      std::uint64_t stamp = 0;  ///< global logical access clock
    };
    mutable std::mutex mutex;
    std::list<std::string> lru;  ///< front = most recent within the shard
    std::unordered_map<std::string, Entry> map;
  };

  Json dispatch(const Request& request);
  Json handle_learn(const Json& request, const Deadline& deadline);
  Json handle_eval(const Request& request);
  Json handle_synth(const Json& request, const Deadline& deadline);
  Json handle_cec(const Json& request, const Deadline& deadline);
  Json handle_ping(const Json& request, const Deadline& deadline);
  Json handle_stats();
  Json handle_metrics(const Json& request);
  /// Registers stats_ and the latency histograms into the process
  /// obs::Registry (constructor helper).
  void register_metrics();

  [[nodiscard]] StoreShard& shard_for(const std::string& id);
  /// LRU lookup (bumps recency); nullptr on miss.
  std::shared_ptr<const StoredModel> store_get(const std::string& id);
  void store_put(const std::string& id, std::shared_ptr<const StoredModel> m);
  /// Evicts globally-least-recent entries until capacity/byte budget hold.
  void store_evict_to_budget();
  /// Second-level lookup in the on-disk ResultCache; fills the LRU on hit.
  std::shared_ptr<const StoredModel> disk_get(const std::string& id,
                                              std::uint64_t content_hash);
  void disk_put(const std::string& id, std::uint64_t content_hash,
                const StoredModel& model,
                const std::vector<synth::PassStats>& trace);

  ServiceOptions options_;
  std::shared_ptr<const synth::ScriptSearch> optimizer_;
  suite::ResultCache disk_cache_;
  ServiceStats stats_;

  /// Single-flight table: model ids whose first learn is still running.
  /// Concurrent identical learns wait on the leader's future instead of
  /// refitting (the store alone cannot prevent N cold-start duplicates).
  std::mutex inflight_mutex_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const StoredModel>>>
      inflight_;

  std::vector<std::unique_ptr<StoreShard>> shards_;
  std::size_t shard_mask_ = 0;
  std::atomic<std::uint64_t> store_clock_{0};
  std::atomic<std::size_t> store_entries_{0};
  std::atomic<std::size_t> store_bytes_{0};

  /// Telemetry side-channel: queue-wait and per-op latency histograms, in
  /// nanoseconds.
  obs::Histogram queue_wait_ns_;
  std::array<obs::Histogram, kNumOps> op_ns_;
  /// Registry aliases for stats_ and the histograms above. Must stay the
  /// LAST members: destruction runs in reverse declaration order, so the
  /// registrations (which point into this object) leave the registry
  /// before anything they reference is torn down.
  std::vector<obs::Registry::Registration> metric_regs_;
};

/// Decodes every row of `rows` into `width` PI columns of rows.rows() bits:
/// bit r of column c is character c of row r. Returns the first row that
/// is not a `width`-character 0/1 string (the columns are then partly
/// filled), or rows.rows() when every row is one.
std::size_t decode_minterm_rows(const RowBlock& rows, std::size_t width,
                                std::vector<core::BitVec>* columns);

/// "m-<hex16>" spelling of a model content hash (and its inverse; false
/// when `id` is not a well-formed model id).
std::string model_id_from_hash(std::uint64_t hash);
bool model_hash_from_id(const std::string& id, std::uint64_t* hash);

}  // namespace lsml::server
