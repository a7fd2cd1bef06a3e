#pragma once
// The one contest driver: the engine behind `lsml run`, the benches, the
// examples and the tests.
//
// Runs the requested contest entries over a suite
// (loaded from a directory of PLA triples, or already in memory), sharded
// across core::ThreadPool. Every (team, benchmark) task builds a fresh
// learner and draws from portfolio::contest_rng, so results are
// bit-identical at any thread count. Completed tasks are memoized in a
// ResultCache keyed by content hash: a second run over unchanged inputs
// recomputes nothing and rewrites byte-identical artifacts. An in-memory
// run is the same call with `cache_dir` empty and `write_artifacts` off.
// Outputs:
//   <out>/aig/<team_key>/<benchmark>.aag   synthesized circuits (AIGER)
//   <out>/leaderboard.csv                  per-(team, benchmark) rows
//   <out>/leaderboard.json                 Table III columns per team

#include <cstdint>
#include <string>
#include <vector>

#include "portfolio/contest.hpp"
#include "suite/result_cache.hpp"
#include "synth/script_search.hpp"

namespace lsml::suite {

struct RunnerOptions {
  std::string out_dir = "lsml-out";
  /// Incremental store location; empty disables caching entirely.
  std::string cache_dir = ".lsml-cache";
  std::uint64_t seed = 2020;  ///< contest seed (IWLS vintage default)
  /// Mixed into every cache key. Must digest any entry configuration the
  /// factory name does not capture (e.g. the team grid scale), so results
  /// computed under one configuration are never served under another.
  std::uint64_t config_salt = 0;
  /// Concurrent task workers: 1 (or negative) = serial in the calling
  /// thread, 0 = one per hardware thread, N > 1 = exactly N. Never changes
  /// results.
  int num_threads = 0;
  /// 0 = silent, 1 = run summary (and the budget warning), 2 = per-task
  /// lines too; all on stderr.
  int verbosity = 0;
  /// Skip AIGER/leaderboard files (tests and benches that only want runs).
  bool write_artifacts = true;
  /// Optimization request applied to every task's circuit (script,
  /// budgets, verify). Installed as the process default for the duration
  /// of the run and digested into every cache key (a different script or
  /// budget is a different task).
  synth::OptRequest opt;
  /// Soft wall-clock budget for the whole run; 0 = unlimited. All tasks
  /// always run to completion (determinism first); a blown budget only
  /// sets RunnerReport::budget_exceeded and, at verbosity >= 1, prints a
  /// line on stderr.
  std::int64_t time_budget_ms = 0;
};

struct RunnerReport {
  std::vector<portfolio::TeamRun> runs;  ///< ordered as `entries`
  std::vector<std::string> benchmarks;   ///< suite order (sorted by name)
  int cache_hits = 0;
  int cache_misses = 0;
  double elapsed_ms = 0.0;
  /// elapsed_ms exceeded a nonzero RunnerOptions::time_budget_ms.
  bool budget_exceeded = false;
  std::string leaderboard_csv_path;  ///< empty unless artifacts written
  std::string leaderboard_json_path;
};

/// Directory key an entry's artifacts and cache rows are filed under: the
/// factory's registered name when set, else "team<N>".
std::string entry_key(const portfolio::ContestEntry& entry);

/// Runs `entries` over an already-loaded suite (tests, benches and
/// examples call this directly; `lsml run` goes through run_suite_dir).
/// Entry keys must be unique (std::invalid_argument otherwise). Results
/// are ordered as `entries` and, within an entry, as `suite`.
RunnerReport run_contest_on(const std::vector<portfolio::ContestEntry>& entries,
                            const std::vector<oracle::Benchmark>& suite,
                            const RunnerOptions& options);

/// Discovers + loads `suite_dir`, then runs `entries` over it.
RunnerReport run_suite_dir(const std::string& suite_dir,
                           const std::vector<portfolio::ContestEntry>& entries,
                           const RunnerOptions& options);

}  // namespace lsml::suite
