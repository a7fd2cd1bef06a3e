// Serial vs parallel contest execution on the oracle suite.
//
// Runs the same multi-team contest twice through suite::run_contest_on
// (cache and artifacts off) — num_threads=1 and num_threads=N
// (LSML_THREADS, default 8) — verifies the two runs are
// identical result-for-result, and reports the wall-clock speedup. This is
// the scalability check for the engine behind Table III and Figs. 2-4:
// parallelism must buy time and nothing else.

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/thread_pool.hpp"

namespace {

using namespace lsml;

int parallel_threads() {
  const int n = core::threads_from_env("LSML_THREADS", 8);
  // 0 means "hardware" elsewhere; for the speedup report we want the
  // resolved count in the output, so resolve it here.
  return n == 0 ? static_cast<int>(core::ThreadPool::default_num_threads())
                : n;
}

bool identical(const std::vector<portfolio::TeamRun>& a,
               const std::vector<portfolio::TeamRun>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].team != b[t].team ||
        a[t].results.size() != b[t].results.size()) {
      return false;
    }
    for (std::size_t r = 0; r < a[t].results.size(); ++r) {
      const auto& x = a[t].results[r];
      const auto& y = b[t].results[r];
      if (x.benchmark_id != y.benchmark_id || x.method != y.method ||
          x.train_acc != y.train_acc || x.valid_acc != y.valid_acc ||
          x.test_acc != y.test_acc || x.num_ands != y.num_ands ||
          x.num_levels != y.num_levels) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  const core::ScaleConfig cfg = bench::announce("parallel contest engine");
  const std::vector<oracle::Benchmark> suite = bench::load_suite(cfg);

  portfolio::TeamOptions team_options;
  team_options.scale = cfg.scale;
  const std::vector<portfolio::ContestEntry> entries =
      portfolio::contest_entries(portfolio::all_team_numbers(), team_options);

  const int threads = parallel_threads();
  std::printf("teams=%zu benchmarks=%zu tasks=%zu hardware_threads=%zu\n\n",
              entries.size(), suite.size(), entries.size() * suite.size(),
              core::ThreadPool::default_num_threads());

  // The in-memory contest: cache and artifacts off, so both runs compute
  // every task.
  suite::RunnerOptions options;
  options.cache_dir.clear();
  options.write_artifacts = false;
  options.seed = 2020;

  options.num_threads = 1;
  std::printf("serial run (1 thread)...\n");
  const suite::RunnerReport serial =
      suite::run_contest_on(entries, suite, options);

  options.num_threads = threads;
  std::printf("parallel run (%d threads)...\n", threads);
  const suite::RunnerReport parallel =
      suite::run_contest_on(entries, suite, options);

  const bool match = identical(serial.runs, parallel.runs);
  const double speedup = parallel.elapsed_ms > 0.0
                             ? serial.elapsed_ms / parallel.elapsed_ms
                             : 0.0;

  std::printf("\nserial:   %10.0f ms\n", serial.elapsed_ms);
  std::printf("parallel: %10.0f ms  (%d threads)\n", parallel.elapsed_ms,
              threads);
  std::printf("speedup:  %10.2fx\n", speedup);
  std::printf("results identical: %s\n", match ? "yes" : "NO — BUG");

  std::printf("\nleaderboard (parallel run):\n%s",
              portfolio::format_leaderboard(parallel.runs).c_str());

  return match ? 0 : 1;
}
