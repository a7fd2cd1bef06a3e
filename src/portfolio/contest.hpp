#pragma once
// Contest tasks and evaluation analytics.
//
// Evaluates one learner on one benchmark and computes every aggregate the
// paper reports: Table III rows (test accuracy / AND gates / levels /
// overfit), the accuracy-size Pareto frontier of the virtual best (Fig. 2),
// per-benchmark maximum accuracy (Fig. 3), and win rates (Fig. 4).
//
// Execution model: the contest is a bag of independent (team, benchmark)
// tasks, driven by suite::run_contest_on (suite/runner.hpp). Each task gets
// its own learner instance (built from a LearnerFactory) and its own RNG
// stream derived by Rng::split(team, benchmark), so a parallel run produces
// bit-identical results to a serial one at any thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "learn/factory.hpp"
#include "learn/learner.hpp"
#include "oracle/suite.hpp"

namespace lsml::portfolio {

struct BenchmarkResult {
  int benchmark_id = 0;
  std::string benchmark;
  std::string method;        ///< what the portfolio picked
  double train_acc = 0.0;
  double valid_acc = 0.0;
  double test_acc = 0.0;
  std::uint32_t num_ands = 0;
  std::uint32_t num_levels = 0;
  /// What the optimization pipeline did to the winning circuit: the
  /// per-pass trace from finish_model plus any portfolio approximation
  /// and the final budget enforcement. Persisted by suite::ResultCache.
  std::vector<synth::PassStats> synth_trace;
  /// SAT certification of the artifact's pipeline run (the `verified`
  /// leaderboard column). kExact means sat::cec proved the optimized
  /// circuit equivalent to the raw learner output; any approximation on
  /// top (the +budget/+approx method suffixes) downgrades to
  /// kSkippedApprox. Persisted by suite::ResultCache.
  synth::VerifyStatus verified = synth::VerifyStatus::kNotRequested;
  /// Canonical text of the optimization script behind this artifact (the
  /// leaderboard's script column) — the installed request's script.
  /// Persisted by suite::ResultCache.
  std::string opt_script;

  /// AND gates entering the pipeline (the raw lowered circuit).
  [[nodiscard]] std::uint32_t synth_ands_in() const;
  /// Gates the pipeline removed (never negative; approximation included).
  [[nodiscard]] std::uint32_t synth_ands_saved() const;
  /// Total optimization wall time for this task.
  [[nodiscard]] double synth_ms() const;
};

struct TeamRun {
  int team = 0;
  std::vector<BenchmarkResult> results;

  [[nodiscard]] double avg_test_acc() const;
  [[nodiscard]] double avg_valid_acc() const;
  [[nodiscard]] double avg_ands() const;
  [[nodiscard]] double avg_levels() const;
  /// The paper's overfit metric: mean (validation - test) accuracy.
  [[nodiscard]] double overfit() const;
  /// Aggregate optimization gains: mean raw size entering the pipeline,
  /// mean gates removed by it, and total pipeline wall time.
  [[nodiscard]] double avg_synth_ands_in() const;
  [[nodiscard]] double avg_synth_saved() const;
  [[nodiscard]] double total_synth_ms() const;
  /// Fraction of this team's artifacts whose pipeline run was SAT-proved
  /// exact (verified == kExact); 0 when verification was off.
  [[nodiscard]] double verified_fraction() const;
};

/// The engine's one seeding rule: every (team, benchmark) task draws from
/// root(seed).split(team, benchmark_id), never from a sequentially advanced
/// generator. Exposed so tests and benches can reproduce any single task
/// of suite::run_contest_on bit for bit.
core::Rng contest_rng(std::uint64_t seed, int team_number, int benchmark_id);

/// Evaluates one learner on one benchmark. When `circuit_out` is non-null
/// it receives the synthesized AIG (the contest deliverable), so callers
/// can export AIGER artifacts without re-running the learner.
///
/// The deliverable honors the process-default synth::OptRequest's node
/// budget unconditionally: if the learner hands back a circuit over
/// budget, synth::fit_to_budget runs here (with the task RNG) and the
/// accuracies are re-measured — so every exported artifact fits the
/// contest's gate cap no matter which learner produced it.
BenchmarkResult evaluate_on(learn::Learner& learner,
                            const oracle::Benchmark& bench, core::Rng& rng,
                            aig::Aig* circuit_out = nullptr);

/// One contestant: a team number plus the recipe for its learner. Every
/// task builds a fresh learner from `factory`.
struct ContestEntry {
  int team = 0;
  learn::LearnerFactory factory;
};

/// One (size, accuracy) point per budget: for each budget, each benchmark
/// contributes its best candidate among all runs whose size fits.
struct ParetoPoint {
  double avg_ands = 0.0;
  double avg_test_acc = 0.0;
};
std::vector<ParetoPoint> virtual_best_pareto(
    const std::vector<TeamRun>& runs, const std::vector<double>& budgets);

/// Fig. 3: maximum test accuracy over all runs, per benchmark.
std::vector<double> max_accuracy_per_benchmark(
    const std::vector<TeamRun>& runs);

/// Fig. 4: per team, how many benchmarks it wins outright / is within 1%
/// of the best on.
struct WinRate {
  int team = 0;
  int best = 0;
  int within_top1pct = 0;
};
std::vector<WinRate> win_rates(const std::vector<TeamRun>& runs);

/// Table III-style leaderboard, sorted by average test accuracy.
std::string format_leaderboard(std::vector<TeamRun> runs);

}  // namespace lsml::portfolio
