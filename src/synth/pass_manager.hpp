#pragma once
// The circuit-optimization layer every contest deliverable goes through.
//
// A PassManager runs a Script (see synth/script.hpp) over an AIG under a
// SynthOptions contract and returns the optimized circuit together with a
// PassStats trace (per-pass size/depth deltas and wall time) — the
// observable, named-pass view of synthesis that DRiLLS/LOSTIN-style work
// treats as the environment. Two guarantees hold for every run:
//
//   1. Budget: when options.node_budget > 0, the returned circuit has at
//      most that many AND gates — by approximation if the script's own
//      passes cannot get there (the contest's 5000-AND cap, made a type-
//      level contract instead of a per-team convention).
//   2. Monotonicity: functionality-preserving scripts never return more
//      AND gates than `in.cleanup()` — a script that hurts is discarded
//      in favor of the best intermediate snapshot.
//
// run_cached() additionally memoizes whole runs in a process-wide table
// keyed by (input structure, script, options): structurally identical
// circuits — common across teams sharing learners — are optimized once
// per process, and every thread gets bit-identical results.

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "core/rng.hpp"
#include "synth/script.hpp"

namespace lsml::synth {

/// Outcome of the optional post-script SAT certification (see
/// SynthOptions::verify_equivalence).
enum class VerifyStatus {
  kNotRequested,  ///< verification was off for this run
  kExact,         ///< SAT-proved equivalent to the input circuit
  kUndecided,     ///< the verification budget ran out before a verdict
  kSkippedApprox, ///< an approx/const pass changed the function on purpose
  kFailed,        ///< a pass broke the function; the run returned the safe
                  ///< cleanup baseline instead of the broken circuit
};

/// Canonical spellings ("-", "exact", "undecided", "approx", "failed");
/// stable, they participate in leaderboards and the on-disk result cache.
[[nodiscard]] const char* to_string(VerifyStatus status);
/// Inverse of to_string; false on unknown spellings (corrupt cache entry).
bool verify_status_from_string(const std::string& text, VerifyStatus* out);

/// The contract a PassManager run honors.
struct SynthOptions {
  /// Hard AND-gate cap on the returned circuit; 0 = uncapped. Enforced by
  /// an appended approx pass when the script leaves the circuit over.
  std::uint32_t node_budget = 5000;
  /// Script repetitions: the script re-runs while it keeps shrinking the
  /// circuit, up to this many times.
  int max_rounds = 3;
  /// Soft wall-clock budget: once exceeded, no further pass *starts*
  /// (running passes finish; guarantees are still enforced). 0 =
  /// unlimited. Nonzero budgets trade run-to-run determinism for latency,
  /// so the memo table skips them.
  std::int64_t time_budget_ms = 0;
  /// Seed of the approximation RNG when the caller provides none, so
  /// budget enforcement is reproducible from the options alone.
  std::uint64_t approx_seed = 0x5eed5eedULL;
  /// Post-script verify_equivalence hook: SAT-check (sat::cec) that the
  /// returned circuit still computes the input's function, certifying the
  /// whole script exact. Runs with the approx RNG untouched. When a pass
  /// intentionally changed the function (approx, const fallback) the
  /// check is skipped and reported as such; when verification *fails* the
  /// run returns the input's cleanup — the safe exact baseline — instead
  /// of the broken circuit.
  bool verify_equivalence = false;
  /// Conflict budget of the certification SAT call; 0 = unlimited.
  std::int64_t verify_conflict_budget = 1 << 20;

  /// Stable digest; participates in on-disk cache keys (same caveat as
  /// Script::fingerprint).
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// What one pass did: sizes around it and how long it took.
struct PassStats {
  std::string pass;  ///< canonical spelling (Pass::spelling())
  std::uint32_t ands_before = 0;
  std::uint32_t ands_after = 0;
  std::uint32_t levels_before = 0;
  std::uint32_t levels_after = 0;
  double ms = 0.0;
};

/// AND gates entering a trace (`fallback` when it is empty). The single
/// source of truth for trace aggregation — BenchmarkResult and
/// SynthResult both report through these.
[[nodiscard]] std::uint32_t trace_ands_in(const std::vector<PassStats>& trace,
                                          std::uint32_t fallback);
/// Total wall time across a trace.
[[nodiscard]] double trace_total_ms(const std::vector<PassStats>& trace);

struct SynthResult {
  aig::Aig circuit{0};
  std::vector<PassStats> trace;
  /// Post-script SAT certification verdict (kNotRequested unless
  /// SynthOptions::verify_equivalence was set).
  VerifyStatus verify = VerifyStatus::kNotRequested;

  /// AND gates entering the pipeline (before the implicit cleanup).
  [[nodiscard]] std::uint32_t ands_in() const;
  /// Total wall time across all passes.
  [[nodiscard]] double total_ms() const;
};

class PassManager {
 public:
  explicit PassManager(SynthOptions options = {}) : options_(options) {}

  [[nodiscard]] const SynthOptions& options() const { return options_; }

  /// Runs the script. `rng` feeds approx passes; pass nullptr to draw from
  /// a fresh Rng(options.approx_seed) stream instead (fully deterministic
  /// in (in, script, options)).
  [[nodiscard]] SynthResult run(const aig::Aig& in, const Script& script,
                                core::Rng* rng = nullptr) const;

  /// run() through the process-wide memo table. Only deterministic runs
  /// are memoized (no caller rng by construction; time-budgeted runs
  /// bypass the table). Thread-safe.
  [[nodiscard]] SynthResult run_cached(const aig::Aig& in,
                                       const Script& script) const;

  // ---------------------------------------------------------- observability
  /// Process-wide counters (tests assert "pipeline ran exactly once").
  static std::uint64_t runs_executed();  ///< real runs, memo hits excluded
  static std::uint64_t memo_hits();
  static void reset_counters();
  /// Drops all memoized results, whole runs and every thread's rewrite
  /// memo (aig::clear_rewrite_memo) alike. For tests and cold
  /// measurements; never required for correctness.
  static void clear_memo();

 private:
  SynthOptions options_;
};

}  // namespace lsml::synth
