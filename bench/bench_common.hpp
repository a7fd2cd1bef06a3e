#pragma once
// Shared scaffolding for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper. They all
// respect LSML_SCALE (smoke / fast / full; see core::ScaleConfig) and print
// the active configuration first so recorded outputs are self-describing.
//
// Team runs are expensive, so they are memoized in the library-level
// suite::ResultCache (content-hash keyed, one entry per (team, benchmark)
// task): bench_table3 populates the store and the Fig. 2/3/4 benches reuse
// it, recomputing only the tasks whose inputs or code version changed.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/simd.hpp"
#include "oracle/suite.hpp"
#include "portfolio/contest.hpp"
#include "portfolio/team.hpp"
#include "server/json.hpp"
#include "suite/runner.hpp"

namespace lsml::bench {

inline core::ScaleConfig announce(const std::string& name) {
  const core::ScaleConfig cfg = core::scale_from_env();
  std::cout << "== " << name << " ==\n"
            << "scale=" << cfg.name() << " rows/split=" << cfg.train_rows
            << " benchmarks=" << cfg.num_benchmarks
            << " (LSML_SCALE=smoke|fast|full)\n\n";
  return cfg;
}

inline std::vector<oracle::Benchmark> load_suite(const core::ScaleConfig& cfg) {
  oracle::SuiteOptions options;
  options.rows_per_split = cfg.train_rows;
  return oracle::make_suite(options, static_cast<int>(cfg.num_benchmarks));
}

/// Where benches keep their (team, benchmark) result store. One directory
/// per scale only for tidiness: the content-hash keys already separate
/// scales (different datasets and config salt).
inline std::string runs_cache_dir(const core::ScaleConfig& cfg) {
  return ".lsml-cache/bench-" + cfg.name();
}

/// Worker count for benches: LSML_THREADS, else one per hardware thread.
inline int bench_num_threads() {
  return core::threads_from_env("LSML_THREADS", 0);
}

/// Runs all ten teams over the suite through the incremental result store:
/// only (team, benchmark) tasks whose inputs or code version changed are
/// recomputed (thread count never changes the numbers). LSML_NO_CACHE=1
/// bypasses the store entirely.
inline std::vector<portfolio::TeamRun> team_runs(
    const core::ScaleConfig& cfg, const std::vector<oracle::Benchmark>& suite,
    bool verbose = true) {
  portfolio::TeamOptions team_options;
  team_options.scale = cfg.scale;
  suite::RunnerOptions options;
  const char* no_cache = std::getenv("LSML_NO_CACHE");
  options.cache_dir =
      (no_cache != nullptr && no_cache[0] == '1') ? "" : runs_cache_dir(cfg);
  options.config_salt = static_cast<std::uint64_t>(cfg.scale);
  options.seed = 2020;
  options.num_threads = bench_num_threads();
  options.verbosity = verbose ? 1 : 0;
  options.write_artifacts = false;
  const suite::RunnerReport report = suite::run_contest_on(
      portfolio::contest_entries(portfolio::all_team_numbers(), team_options),
      suite, options);
  if (verbose && report.cache_hits > 0) {
    std::cout << "(" << report.cache_hits << "/"
              << (report.cache_hits + report.cache_misses)
              << " team-run tasks served from " << options.cache_dir
              << ")\n\n";
  }
  return report.runs;
}

// ------------------------------------------------- host-tagged snapshots
// A perf snapshot (BENCH_*.json) carries a `host` object, and `--check`
// refuses a snapshot from another host: numbers from other hardware or
// another build say nothing about a regression. LSML_BUILD_TYPE and
// LSML_COMPILER are set for every bench by CMakeLists.txt.

/// What the figures depend on besides the code: the machine and the build.
inline server::Json host_info() {
  std::string cpu = "?";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  server::Json host = server::Json::object();
  host.set("nproc",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.set("cpu", cpu);
  host.set("simd", core::simd::ops().name);
  host.set("build", LSML_BUILD_TYPE);
  host.set("compiler", LSML_COMPILER);
  return host;
}

/// `--check`'s exit code for a snapshot from another host, so a gate can
/// tell "no baseline for this host" from a regression.
constexpr int kOtherHostExit = 3;

/// Exits with kOtherHostExit unless `snapshot` (read from `path`) was
/// recorded on this host; `bench` names the binary in the message.
inline void require_same_host(const char* bench, const std::string& path,
                              const server::Json& snapshot) {
  const server::Json here = host_info();
  const server::Json* recorded = snapshot.find("host");
  if (recorded != nullptr && recorded->dump() == here.dump()) {
    return;
  }
  std::fprintf(stderr,
               "%s: %s was recorded on another host; re-record it here "
               "with --json\n  snapshot: %s\n  this run: %s\n",
               bench, path.c_str(),
               recorded != nullptr ? recorded->dump().c_str() : "(none)",
               here.dump().c_str());
  std::exit(kOtherHostExit);
}

/// Prints a numeric series as an aligned two-column table.
inline void print_series(const std::string& xlabel, const std::string& ylabel,
                         const std::vector<double>& xs,
                         const std::vector<double>& ys) {
  std::printf("%-14s %-14s\n", xlabel.c_str(), ylabel.c_str());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("%-14.2f %-14.4f\n", xs[i], ys[i]);
  }
}

}  // namespace lsml::bench
