// Contest flow: run several team strategies on a slice of the benchmark
// suite — in parallel — and print a mini leaderboard, the paper's Table III
// in miniature. LSML_THREADS overrides the worker count (default: one per
// hardware thread); any thread count produces identical numbers.

#include <cstdio>
#include <iostream>

#include "core/config.hpp"
#include "oracle/suite.hpp"
#include "portfolio/contest.hpp"
#include "portfolio/team.hpp"
#include "suite/runner.hpp"

int main() {
  using namespace lsml;

  // A slice of the suite spanning all three domains of Table I:
  // arithmetic (comparator, adder MSB), random logic, symmetric, ML-like.
  oracle::SuiteOptions suite_options;
  suite_options.rows_per_split = 1000;
  std::vector<oracle::Benchmark> suite;
  for (const int id : {0, 31, 52, 74, 76, 82}) {
    suite.push_back(oracle::make_benchmark(id, suite_options));
    std::cout << "generated " << suite.back().name << " ("
              << suite.back().category << ")\n";
  }

  portfolio::TeamOptions team_options;
  team_options.scale = core::Scale::kSmoke;  // trimmed grids for the demo

  // The in-memory contest: the one driver with cache and artifacts off.
  suite::RunnerOptions options;
  options.cache_dir.clear();
  options.write_artifacts = false;
  options.seed = 99;
  // 0 = one worker per hardware thread; LSML_THREADS overrides.
  options.num_threads = core::threads_from_env("LSML_THREADS", 0);
  options.verbosity = 1;

  const suite::RunnerReport report = suite::run_contest_on(
      portfolio::contest_entries({2, 7, 8, 10}, team_options), suite, options);
  const std::vector<portfolio::TeamRun>& runs = report.runs;

  std::printf("\nran %d (team x benchmark) tasks in %.0f ms\n",
              report.cache_hits + report.cache_misses, report.elapsed_ms);
  std::cout << "\n" << portfolio::format_leaderboard(runs);

  std::cout << "\nwhat each team picked per benchmark:\n";
  for (const auto& run : runs) {
    std::printf("team %2d:", run.team);
    for (const auto& r : run.results) {
      std::printf("  %s=%s(%u)", r.benchmark.c_str(), r.method.c_str(),
                  r.num_ands);
    }
    std::printf("\n");
  }
  return 0;
}
