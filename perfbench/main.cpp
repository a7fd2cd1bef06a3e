// lsml end-to-end benchmark.
//
//   perfbench --workload contest|synth|serve --seed N --seconds S
//             --trace 0|1 [--work DIR]
//
// Runs one workload through the library's public entry points, checks
// every output against an independent reference, and prints as its last
// stdout line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer split (see README.md in this directory for both lists and for
// which end-to-end figure each layer metric should move). The workloads
// contest-items, contest-draws, synth-items and synth-draws instead print
// the calibration tables of contest_costs.inc and synth_costs.inc.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "perfbench.hpp"

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload contest|synth|serve --seed N "
               "--seconds S --trace 0|1 [--work DIR]\n",
               message.c_str());
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(flag + " needs a value");
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0)) {
        usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--work") {
      args.work_dir = value;
    } else {
      usage("unknown option " + flag);
    }
    if (end != nullptr && *end != '\0') {
      usage("bad number for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) {
    usage("--workload is required");
  }
  return args;
}

struct MetricName {
  const char* name;
  const char* unit;
};

// BENCHMARK.json's end_to_end list: every workload reports every one.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
};

// BENCHMARK.json's per_layer list. A layer a workload does not exercise
// reports 0 there (no SAT on contest, no server on contest or synth).
// peak_rss_mb leads it: it depends on which inputs a seed draws too much
// to carry an end-to-end bound.
constexpr MetricName kPerLayer[] = {
    {"peak_rss_mb", "MB"},
    {"suite.load_ms", "ms"},
    {"portfolio.task_max_s", "s"},
    {"portfolio.cpu_s.team1", "s"},
    {"portfolio.cpu_s.team2", "s"},
    {"portfolio.cpu_s.team3", "s"},
    {"portfolio.cpu_s.team4", "s"},
    {"portfolio.cpu_s.team5", "s"},
    {"portfolio.cpu_s.team6", "s"},
    {"portfolio.cpu_s.team7", "s"},
    {"portfolio.cpu_s.team8", "s"},
    {"portfolio.cpu_s.team9", "s"},
    {"portfolio.cpu_s.team10", "s"},
    {"learn.self_s", "s"},
    {"synth.approx_s", "s"},
    {"synth.approx_calls", "count"},
    {"synth.approx_ands_removed", "count"},
    {"synth.rw_s", "s"},
    {"synth.rw_calls", "count"},
    {"synth.rw_ands_removed", "count"},
    {"synth.rf_s", "s"},
    {"synth.rf_calls", "count"},
    {"synth.rf_ands_removed", "count"},
    {"synth.b_s", "s"},
    {"synth.b_calls", "count"},
    {"synth.b_ands_removed", "count"},
    {"synth.fs_s", "s"},
    {"synth.fs_calls", "count"},
    {"synth.fs_ands_removed", "count"},
    {"synth.verify_s", "s"},
    {"synth.verify_calls", "count"},
    {"synth.verify_ands_removed", "count"},
    {"synth.memo_hit_ratio", "ratio"},
    {"sat.solves", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.props_per_s", "1/s"},
    {"aig.sim_words", "count"},
    {"aig.sim_ns_per_word_256", "ns"},
    {"aig.sim_ns_per_word_4096", "ns"},
    {"server.queue_wait_p50_us", "us"},
    {"server.transport_p50_us", "us"},
    {"server.op_eval_p50_us", "us"},
    {"server.coalesced_ratio", "ratio"},
    {"server.json_parse_ns_per_row", "ns"},
    {"core.loop_iters_per_req", "ratio"},
    {"contest.test_acc", "%"},
    {"contest.ands", "count"},
    {"synth.ands_ratio", "ratio"},
    {"serve.c1_p50_us", "us"},
    {"serve.c1_p99_us", "us"},
    {"serve.c4_req_per_s", "1/s"},
    {"serve.c4_p99_us", "us"},
    {"serve.wide_rows_per_s", "1/s"},
    {"serve.wide_p50_us", "us"},
    {"guard.synth_runs", "count"},
    {"guard.sat_conflicts", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.dropped", "count"},
};

/// Prints the result line. Returns false when an end-to-end metric is
/// missing (a benchmark bug, not a measurement).
template <std::size_t N>
bool print_result(const perfbench::Report& report,
                  const MetricName (&names)[N], bool zero_if_missing) {
  std::string metrics;
  for (const MetricName& m : names) {
    const auto it = report.metrics.find(m.name);
    if (it == report.metrics.end() && !zero_if_missing) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", m.name);
      return false;
    }
    const double value = it == report.metrics.end() || !std::isfinite(it->second)
                             ? 0.0
                             : it->second;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, value, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct && report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  perfbench::Report report;
  try {
    std::filesystem::create_directories(args.work_dir);
    // Calibration modes behind contest_costs.inc and synth_costs.inc.
    const std::map<std::string, void (*)(const perfbench::Args&)> calibrations{
        {"contest-items", perfbench::print_contest_items},
        {"contest-draws", perfbench::print_contest_draws},
        {"synth-items", perfbench::print_synth_items},
        {"synth-draws", perfbench::print_synth_draws},
    };
    if (const auto it = calibrations.find(args.workload);
        it != calibrations.end()) {
      it->second(args);
      return 0;
    }
    if (args.workload == "contest") {
      perfbench::run_contest(args, &report);
    } else if (args.workload == "synth") {
      perfbench::run_synth(args, &report);
    } else if (args.workload == "serve") {
      perfbench::run_serve(args, &report);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  std::printf("host: %s\n", perfbench::host_line().c_str());
  const bool printed = args.trace ? print_result(report, kPerLayer, true)
                                  : print_result(report, kEndToEnd, false);
  return printed ? 0 : 1;
}
