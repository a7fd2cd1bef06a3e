// lsml — command-line driver for the contest over on-disk benchmark
// suites, and for the learning-as-a-service daemon.
//
//   lsml gen <out-dir>    write a contest-format PLA suite from the
//                         Table I oracles (so `run` works with no data)
//   lsml ls <suite-dir>   list the benchmark triples a directory provides
//   lsml run <suite-dir>  run teams/learners over the suite: AIGER
//                         artifacts + JSON/CSV leaderboard, incremental
//                         via the content-hash result cache
//   lsml synth <in.aag>   run an optimization script over a standalone
//                         AIGER file and print the pass trace
//   lsml cec <a> <b>      SAT equivalence check of two AIGER files
//   lsml serve            long-running request/response daemon (NDJSON
//                         over TCP, or --stdio) for learn/eval/synth/cec
//   lsml query            one-shot client for a running `lsml serve`
//   lsml teams            list contest teams and registered learners
//
// Every run is deterministic in (suite contents, entries, seed, script):
// thread count never changes results, and a second run over unchanged
// inputs is served entirely from the cache, byte-identical to the first.
//
// Exit codes follow cli.hpp: 0 ok, 1 runtime failure, 2 usage error —
// except `cec`, whose 0/1/2 are verdicts and whose errors are 3.

#include "cli/cli.hpp"

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aig/aig_io.hpp"
#include "core/config.hpp"
#include "core/thread_pool.hpp"
#include "learn/factory.hpp"
#include "obs/trace.hpp"
#include "pla/pla.hpp"
#include "portfolio/contest.hpp"
#include "portfolio/team.hpp"
#include "sat/cec.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "suite/generate.hpp"
#include "suite/manifest.hpp"
#include "suite/runner.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script_search.hpp"

namespace lsml::cli {
namespace {

using namespace lsml;

constexpr const char* kUsage =
    "usage: lsml <command> [options]\n"
    "\n"
    "commands:\n"
    "  gen <out-dir>    generate a contest-format PLA suite\n"
    "      --first N --last N   benchmark id range        [0, 9]\n"
    "      --rows N             minterms per split        [1000]\n"
    "      --seed S             oracle sampling seed      [2020]\n"
    "  ls <suite-dir>   list the benchmark triples of a suite\n"
    "  run <suite-dir>  contest over a suite directory\n"
    "      --teams A,B,...      contest teams to run      [1..10]\n"
    "      --learners X,Y,...   registered learners to add as entries\n"
    "      --out DIR            artifact directory        [lsml-out]\n"
    "      --cache DIR          incremental result store  [.lsml-cache]\n"
    "      --no-cache           disable the result store\n"
    "      --threads N          workers (0 = hardware)    [0]\n"
    "      --seed S             contest seed              [2020]\n"
    "      --scale smoke|fast|full  team grid sizes       [fast]\n"
    "      --opt-script S       preset or pass script     [fast]\n"
    "                           (presets: fast, resyn2, resyn2fs,\n"
    "                            compress2max; script syntax e.g.\n"
    "                            \"b;rw;b;rw -k 6\" or \"b;rw;fs -c 500\")\n"
    "      --max-gates N        AND-gate cap on artifacts [5000, 0 = off]\n"
    "      --opt-rounds N       script repetitions        [3]\n"
    "      --time-budget-ms N   soft run budget, 0 = off  [0]\n"
    "      --verify             SAT-certify every artifact's pipeline run\n"
    "                           (adds the leaderboard's verified column)\n"
    "      --trace-out FILE     write a Chrome trace (chrome://tracing,\n"
    "                           Perfetto) of the run's spans on exit\n"
    "  synth <in.aag>   optimize one AIGER file, print the pass trace\n"
    "                   (`-` reads the AIGER text from stdin)\n"
    "      --script S           preset or pass script     [resyn2]\n"
    "                           (--opt-script is an alias; presets include\n"
    "                            resyn2fs = resyn2 + SAT sweeping)\n"
    "      --max-gates N        AND-gate cap              [5000, 0 = off]\n"
    "      --rounds N           script repetitions        [1]\n"
    "      --seed S             approximation RNG seed\n"
    "      --out FILE           write the optimized AIGER here\n"
    "      --verify             SAT-certify the run (exit 1 if it failed)\n"
    "      --trace-out FILE     write a Chrome trace of the pass spans\n"
    "  cec <a.aag> <b.aag>  SAT equivalence check (`-` = stdin, once)\n"
    "      --conflicts N        solver conflict budget, 0 = unlimited\n"
    "                           [100000]\n"
    "      --cex-out FILE       append the counterexample minterm (labeled\n"
    "                           by circuit a) to a replayable .pla dump\n"
    "      exit: 0 equivalent, 1 not equivalent (counterexample printed),\n"
    "            2 undecided within budget, 3 usage/input error\n"
    "  serve            learning-as-a-service daemon (see README Serving)\n"
    "      --host H             bind address              [127.0.0.1]\n"
    "      --port P             TCP port (0 = ephemeral)  [7333]\n"
    "      --stdio              serve stdin/stdout instead of TCP\n"
    "      --threads N          heavy-op pool (0 = hardware; N + 1 event\n"
    "                           loops answer evals)       [0]\n"
    "      --max-request-bytes N  per-request line cap    [8388608]\n"
    "      --max-connections N  concurrent-connection cap (0 = off) [0]\n"
    "      --models N           in-memory LRU model slots [64]\n"
    "      --shards N           model-store shard count   [8]\n"
    "      --model-store-bytes N  in-memory store byte budget (0 = off)\n"
    "      --cache DIR          on-disk model store       [.lsml-serve-cache]\n"
    "      --no-cache           disable the on-disk model store\n"
    "      --opt-script S --max-gates N --opt-rounds N --verify\n"
    "                           optimization request applied to every learn\n"
    "                           request\n"
    "                           [fast, 5000, 3, off]\n"
    "      --trace-out FILE     dump a Chrome trace of request spans on\n"
    "                           shutdown (SIGINT/SIGTERM)\n"
    "  query            send requests to a running `lsml serve`\n"
    "      --host H --port P    server address        [127.0.0.1:7333]\n"
    "      --deadline-ms N      attach a per-request deadline\n"
    "      what: ping | stats | metrics\n"
    "            - (default)    read raw JSON request lines from stdin\n"
    "            metrics prints the server's Prometheus text exposition\n"
    "            stats --watch SEC [--count N] polls and prints\n"
    "                  per-interval rates (req/s, evictions/s, ...)\n"
    "            learn <train.pla> [--learner NAME] [--valid FILE]\n"
    "                  [--seed S]\n"
    "            eval <model-id> <bits> [<bits>...]\n"
    "            synth <in.aag> [--script S] [--verify]\n"
    "            cec <a.aag> <b.aag> [--conflicts N]\n"
    "      exit: 0 every response ok, 1 any failed, 2 usage error\n"
    "  teams            list team numbers and registered learner names\n"
    "\n"
    "common run/synth flags: -v / -vv for progress on stderr\n"
    "exit codes: 0 ok, 1 runtime failure, 2 usage error (cec: see above)\n";

int usage_error(const std::string& message) {
  std::fprintf(stderr, "lsml: %s\n\n%s", message.c_str(), kUsage);
  return kExitUsage;
}

// Shared by run/synth/serve --trace-out. Spans are a side channel, so a
// trace that cannot be written is a warning, never a changed exit code.
void export_trace(const std::string& path) {
  if (path.empty()) {
    return;
  }
  if (obs::Tracer::export_to_file(path)) {
    std::fprintf(stderr,
                 "lsml: wrote %zu span(s) (%llu dropped) to %s\n",
                 obs::Tracer::recorded(),
                 static_cast<unsigned long long>(obs::Tracer::dropped()),
                 path.c_str());
  } else {
    std::fprintf(stderr, "lsml: could not write trace to %s\n",
                 path.c_str());
  }
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-') {
    return false;  // strtoull would silently wrap negatives around
  }
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != text.c_str() && *end == '\0';
}

bool parse_int(const std::string& text, int* out) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v < INT_MIN || v > INT_MAX) {
    return false;  // reject rather than wrap out-of-range values
  }
  *out = static_cast<int>(v);
  return true;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t end = list.find(',', begin);
    const std::string item =
        list.substr(begin, end == std::string::npos ? end : end - begin);
    if (!item.empty()) {
      items.push_back(item);
    }
    if (end == std::string::npos) {
      break;
    }
    begin = end + 1;
  }
  return items;
}

/// Pulls the value of `--flag value`; returns false (after reporting) if
/// the value is missing.
bool flag_value(const std::vector<std::string>& args, std::size_t* i,
                std::string* value) {
  if (*i + 1 >= args.size()) {
    std::fprintf(stderr, "lsml: %s needs a value\n", args[*i].c_str());
    return false;
  }
  *value = args[++*i];
  return true;
}

/// One parser for the optimization-request flags every optimization
/// surface shares (`run`, `synth`, `serve`): --opt-script/--script S
/// (preset or pass syntax), --max-gates N, --opt-rounds/--rounds N,
/// --verify. A command seeds the request with its own defaults, lets
/// try_flag() consume what it recognizes inside its option loop, and calls
/// finish() once — which validates the script and reports any failure in
/// the one shared usage-error format. Command-specific semantics (seeds,
/// time budgets) are applied by the caller through request().
class OptRequestFlags {
 public:
  enum class Status { kNotMine, kConsumed, kBad };

  OptRequestFlags(const char* default_script, int default_rounds) {
    request_.script = default_script;
    request_.options.max_rounds = default_rounds;
  }

  Status try_flag(const std::vector<std::string>& args, std::size_t* i) {
    std::string value;
    if (args[*i] == "--opt-script" || args[*i] == "--script") {
      return flag_value(args, i, &request_.script) ? Status::kConsumed
                                                   : Status::kBad;
    }
    if (args[*i] == "--max-gates") {
      std::uint64_t gates = 0;
      if (!flag_value(args, i, &value) || !parse_u64(value, &gates) ||
          gates > 0xffffffffULL) {
        usage_error("--max-gates must be in [0, 2^32) (0 = uncapped)");
        return Status::kBad;
      }
      request_.options.node_budget = static_cast<std::uint32_t>(gates);
      return Status::kConsumed;
    }
    if (args[*i] == "--opt-rounds" || args[*i] == "--rounds") {
      const std::string flag = args[*i];
      int rounds = 0;
      if (!flag_value(args, i, &value) || !parse_int(value, &rounds) ||
          rounds < 1) {
        usage_error(flag + " must be >= 1");
        return Status::kBad;
      }
      request_.options.max_rounds = rounds;
      return Status::kConsumed;
    }
    if (args[*i] == "--verify") {
      request_.options.verify_equivalence = true;
      return Status::kConsumed;
    }
    return Status::kNotMine;
  }

  /// Validates the accumulated script text; prints the shared usage error
  /// and returns false when it is neither a preset nor valid pass syntax.
  bool finish() {
    try {
      request_.validate();
      return true;
    } catch (const std::invalid_argument& e) {
      usage_error(e.what());
      return false;
    }
  }

  [[nodiscard]] synth::OptRequest& request() { return request_; }

 private:
  synth::OptRequest request_;
};

/// Whole file as a string; `-` reads stdin to EOF.
std::string read_text_file(const std::string& path) {
  if (path == "-") {
    std::ostringstream os;
    os << std::cin.rdbuf();
    return os.str();
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.empty() || args[0][0] == '-') {
    return usage_error("gen needs an output directory");
  }
  const std::string out_dir = args[0];
  suite::GenerateOptions options;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string value;
    std::uint64_t u = 0;
    if (args[i] == "--first" || args[i] == "--last") {
      const bool is_first = args[i] == "--first";
      int v = 0;
      if (!flag_value(args, &i, &value) || !parse_int(value, &v)) {
        return kExitUsage;
      }
      (is_first ? options.first : options.last) = v;
    } else if (args[i] == "--rows") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return kExitUsage;
      }
      options.rows_per_split = u;
    } else if (args[i] == "--seed") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return kExitUsage;
      }
      options.seed = u;
    } else {
      return usage_error("unknown gen option " + args[i]);
    }
  }
  const std::vector<std::string> names =
      suite::generate_suite(out_dir, options);
  std::printf("wrote %zu benchmark triples (%zu minterms/split) to %s\n",
              names.size(), options.rows_per_split, out_dir.c_str());
  // Generation never deletes files it did not just write, so point out
  // leftovers from previous generations — `lsml run` would include them.
  try {
    const std::size_t found = suite::discover_suite(out_dir).size();
    if (found > names.size()) {
      std::fprintf(stderr,
                   "lsml: warning: %s holds %zu other triple(s) from "
                   "previous generations; `lsml run` will include them\n",
                   out_dir.c_str(), found - names.size());
    }
  } catch (const std::exception&) {
    // A stale, incomplete triple makes discovery throw; `lsml run` will
    // report it with full context.
  }
  return kExitOk;
}

int cmd_ls(const std::vector<std::string>& args) {
  if (args.empty()) {
    return usage_error("ls needs a suite directory");
  }
  const std::vector<suite::SuiteEntry> entries =
      suite::discover_suite(args[0]);
  for (const auto& entry : entries) {
    const oracle::Benchmark bench = suite::load_benchmark(entry);
    std::printf("%-12s id=%-3d %3zu inputs  %zu/%zu/%zu rows\n",
                entry.name.c_str(), entry.id, bench.num_inputs,
                bench.train.num_rows(), bench.valid.num_rows(),
                bench.test.num_rows());
  }
  std::printf("%zu benchmarks in %s\n", entries.size(), args[0].c_str());
  return kExitOk;
}

int cmd_teams() {
  std::printf("contest teams (lsml run --teams):\n ");
  for (const int team : portfolio::all_team_numbers()) {
    std::printf(" %d", team);
  }
  std::printf("\nregistered learner factories (lsml run --learners):\n");
  for (const auto& name : learn::LearnerFactory::registered()) {
    std::printf("  %s\n", name.c_str());
  }
  return kExitOk;
}

int cmd_run(const std::vector<std::string>& args) {
  if (args.empty() || args[0][0] == '-') {
    return usage_error("run needs a suite directory");
  }
  const std::string suite_dir = args[0];
  suite::RunnerOptions options;
  options.num_threads = 0;
  std::vector<int> teams = portfolio::all_team_numbers();
  std::vector<std::string> learners;
  core::Scale scale = core::Scale::kFast;
  OptRequestFlags opt_flags("fast", 3);
  std::string trace_out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string value;
    std::uint64_t u = 0;
    switch (opt_flags.try_flag(args, &i)) {
      case OptRequestFlags::Status::kConsumed:
        continue;
      case OptRequestFlags::Status::kBad:
        return kExitUsage;
      case OptRequestFlags::Status::kNotMine:
        break;
    }
    if (args[i] == "--teams") {
      if (!flag_value(args, &i, &value)) {
        return kExitUsage;
      }
      teams.clear();
      for (const auto& item : split_csv(value)) {
        int team = 0;
        if (!parse_int(item, &team)) {
          return usage_error("bad team number '" + item + "'");
        }
        teams.push_back(team);
      }
    } else if (args[i] == "--learners") {
      if (!flag_value(args, &i, &value)) {
        return kExitUsage;
      }
      learners = split_csv(value);
    } else if (args[i] == "--out") {
      if (!flag_value(args, &i, &options.out_dir)) {
        return kExitUsage;
      }
    } else if (args[i] == "--cache") {
      if (!flag_value(args, &i, &options.cache_dir)) {
        return kExitUsage;
      }
    } else if (args[i] == "--no-cache") {
      options.cache_dir.clear();
    } else if (args[i] == "--threads") {
      if (!flag_value(args, &i, &value) ||
          !parse_int(value, &options.num_threads)) {
        return kExitUsage;
      }
      // Same bound threads_from_env enforces for the env-var path.
      if (options.num_threads < 0 || options.num_threads > 4096) {
        return usage_error("--threads must be in [0, 4096] (0 = hardware)");
      }
    } else if (args[i] == "--seed") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return kExitUsage;
      }
      options.seed = u;
    } else if (args[i] == "--scale") {
      if (!flag_value(args, &i, &value)) {
        return kExitUsage;
      }
      if (value == "smoke") {
        scale = core::Scale::kSmoke;
      } else if (value == "fast") {
        scale = core::Scale::kFast;
      } else if (value == "full") {
        scale = core::Scale::kFull;
      } else {
        return usage_error("bad scale '" + value + "'");
      }
    } else if (args[i] == "--time-budget-ms") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return kExitUsage;
      }
      options.time_budget_ms = static_cast<std::int64_t>(u);
    } else if (args[i] == "--trace-out") {
      if (!flag_value(args, &i, &trace_out)) {
        return kExitUsage;
      }
    } else if (args[i] == "-v") {
      options.verbosity = 1;
    } else if (args[i] == "-vv") {
      options.verbosity = 2;
    } else {
      return usage_error("unknown run option " + args[i]);
    }
  }
  if (!opt_flags.finish()) {
    return kExitUsage;  // a bad --opt-script is a bad command line
  }
  options.opt = opt_flags.request();
  const std::uint32_t max_gates = options.opt.options.node_budget;

  portfolio::TeamOptions team_options;
  team_options.scale = scale;
  // Teams select candidates under the same cap the artifacts must honor;
  // "uncapped" lifts their selection pressure entirely.
  team_options.node_budget = max_gates == 0 ? 0xffffffffu : max_gates;
  // The scale changes team hyper-parameter grids without changing entry
  // keys, so it must participate in cache invalidation.
  options.config_salt = static_cast<std::uint64_t>(scale);
  std::vector<portfolio::ContestEntry> entries =
      portfolio::contest_entries(teams, team_options);
  // Named learners join as extra contestants. Their team ids (100, 101,
  // ...) depend only on their position in --learners, so reruns of the
  // same command line reuse the same RNG streams and cache rows.
  for (std::size_t i = 0; i < learners.size(); ++i) {
    learn::LearnerFactory factory =
        learn::LearnerFactory::try_from_registry(learners[i]);
    if (!factory) {
      std::fprintf(stderr,
                   "lsml: no learner named '%s' (see `lsml teams`)\n",
                   learners[i].c_str());
      return kExitUsage;
    }
    entries.push_back({100 + static_cast<int>(i), std::move(factory)});
  }
  if (entries.empty()) {
    return usage_error("nothing to run: --teams and --learners both empty");
  }

  if (!trace_out.empty()) {
    obs::Tracer::enable();
  }
  const suite::RunnerReport report =
      suite::run_suite_dir(suite_dir, entries, options);
  export_trace(trace_out);
  std::printf("%s", portfolio::format_leaderboard(report.runs).c_str());
  std::printf(
      "\n%zu benchmarks x %zu entries: %d task(s) from cache, %d computed "
      "in %.0f ms\n",
      report.benchmarks.size(), entries.size(), report.cache_hits,
      report.cache_misses, report.elapsed_ms);
  std::printf("opt script: %s (max-gates %u, rounds %d)\n",
              options.opt.script_display().c_str(),
              options.opt.options.node_budget,
              options.opt.options.max_rounds);
  if (options.opt.options.verify_equivalence) {
    double verified = 0.0;
    for (const auto& run : report.runs) {
      verified += run.verified_fraction();
    }
    std::printf("verification: %.0f%% of artifacts SAT-certified exact "
                "(see the leaderboard's verified column)\n",
                report.runs.empty()
                    ? 0.0
                    : 100.0 * verified /
                          static_cast<double>(report.runs.size()));
  }
  {
    double saved = 0.0;
    double synth_ms = 0.0;
    for (const auto& run : report.runs) {
      saved += run.avg_synth_saved();
      synth_ms += run.total_synth_ms();
    }
    std::printf("optimization removed %.0f gates per task on average "
                "(%.0f ms total pass time)\n",
                report.runs.empty()
                    ? 0.0
                    : saved / static_cast<double>(report.runs.size()),
                synth_ms);
  }
  if (report.budget_exceeded) {
    std::printf("warning: run exceeded --time-budget-ms (%.0f ms > %lld ms)\n",
                report.elapsed_ms,
                static_cast<long long>(options.time_budget_ms));
  }
  std::printf("leaderboard: %s\n             %s\n",
              report.leaderboard_csv_path.c_str(),
              report.leaderboard_json_path.c_str());
  std::printf("AIGER artifacts under %s/aig/\n", options.out_dir.c_str());
  if (!options.cache_dir.empty()) {
    std::printf("result cache: %s\n", options.cache_dir.c_str());
  }
  return kExitOk;
}

int cmd_synth(const std::vector<std::string>& args) {
  if (args.empty() || (args[0][0] == '-' && args[0] != "-")) {
    return usage_error("synth needs an input .aag file (or - for stdin)");
  }
  const std::string in_path = args[0];
  std::string out_path;
  std::string trace_out;
  OptRequestFlags opt_flags("resyn2", 1);
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string value;
    std::uint64_t u = 0;
    switch (opt_flags.try_flag(args, &i)) {
      case OptRequestFlags::Status::kConsumed:
        continue;
      case OptRequestFlags::Status::kBad:
        return kExitUsage;
      case OptRequestFlags::Status::kNotMine:
        break;
    }
    if (args[i] == "--out") {
      if (!flag_value(args, &i, &out_path)) {
        return kExitUsage;
      }
    } else if (args[i] == "--seed") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return kExitUsage;
      }
      opt_flags.request().options.approx_seed = u;
    } else if (args[i] == "--time-budget-ms") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return kExitUsage;
      }
      opt_flags.request().options.time_budget_ms = static_cast<std::int64_t>(u);
    } else if (args[i] == "--trace-out") {
      if (!flag_value(args, &i, &trace_out)) {
        return kExitUsage;
      }
    } else if (args[i] == "-v" || args[i] == "-vv") {
      // The trace is always printed; nothing further to say.
    } else {
      return usage_error("unknown synth option " + args[i]);
    }
  }
  if (!opt_flags.finish()) {
    return kExitUsage;  // a bad --script is a bad command line
  }
  const synth::OptRequest& request = opt_flags.request();

  const aig::Aig in =
      in_path == "-" ? aig::read_aag(std::cin) : aig::read_aag_file(in_path);
  if (!trace_out.empty()) {
    obs::Tracer::enable();
  }
  const synth::ScriptSearch optimizer(request);
  const synth::OptOutcome outcome = optimizer.optimize(in);
  const synth::SynthResult& result = outcome.result;
  export_trace(trace_out);

  std::printf("%s: %u inputs, %u AND gates, %u levels\n", in_path.c_str(),
              in.num_pis(), in.num_ands(), in.num_levels());
  std::printf("script %s (%s), max-gates %u, rounds %d\n",
              outcome.script.name.c_str(), outcome.script.str().c_str(),
              request.options.node_budget, request.options.max_rounds);
  std::printf("\n");
  std::printf("%-14s %9s %9s %8s %8s %9s\n", "pass", "ands", "->", "levels",
              "->", "ms");
  for (const synth::PassStats& s : result.trace) {
    std::printf("%-14s %9u %9u %8u %8u %9.2f\n", s.pass.c_str(),
                s.ands_before, s.ands_after, s.levels_before, s.levels_after,
                s.ms);
  }
  const std::uint32_t in_ands = result.ands_in();
  const std::uint32_t out_ands = result.circuit.num_ands();
  std::printf("\n%u -> %u AND gates (%s%.1f%%), %u -> %u levels, %.2f ms\n",
              in_ands, out_ands, out_ands <= in_ands ? "-" : "+",
              in_ands == 0
                  ? 0.0
                  : 100.0 *
                        (in_ands > out_ands
                             ? static_cast<double>(in_ands - out_ands)
                             : static_cast<double>(out_ands - in_ands)) /
                        static_cast<double>(in_ands),
              in.num_levels(), result.circuit.num_levels(),
              result.total_ms());
  if (request.options.verify_equivalence) {
    std::printf("verification: %s\n", synth::to_string(result.verify));
  }
  if (!out_path.empty()) {
    aig::write_aag_file(result.circuit, out_path);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return result.verify == synth::VerifyStatus::kFailed ? kExitRuntime
                                                       : kExitOk;
}

int cmd_cec(const std::vector<std::string>& args) {
  const auto cec_usage = [](const std::string& message) {
    std::fprintf(stderr, "lsml: %s\n\n%s", message.c_str(), kUsage);
    return kExitCecError;  // 0/1/2 are verdicts; an error is not a verdict
  };
  std::vector<std::string> paths;
  sat::CecLimits limits;
  std::string cex_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    std::uint64_t u = 0;
    if (args[i] == "--conflicts") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return cec_usage("--conflicts needs a non-negative integer");
      }
      limits.conflict_budget = static_cast<std::int64_t>(u);
    } else if (args[i] == "--cex-out") {
      if (!flag_value(args, &i, &cex_out)) {
        return cec_usage("--cex-out needs a file path");
      }
    } else if (args[i] == "-" || args[i][0] != '-') {
      paths.push_back(args[i]);
    } else {
      return cec_usage("unknown cec option " + args[i]);
    }
  }
  if (paths.size() != 2) {
    return cec_usage("cec needs exactly two .aag files");
  }
  if (paths[0] == "-" && paths[1] == "-") {
    return cec_usage("only one cec input may be stdin");
  }
  const auto load = [](const std::string& path) {
    return path == "-" ? aig::read_aag(std::cin) : aig::read_aag_file(path);
  };
  const aig::Aig a = load(paths[0]);
  const aig::Aig b = load(paths[1]);
  const sat::CecResult result = sat::cec(a, b, limits);
  switch (result.status) {
    case sat::CecStatus::kEquivalent:
      std::printf("EQUIVALENT (%llu conflicts)\n",
                  static_cast<unsigned long long>(
                      result.solver_stats.conflicts));
      return kExitOk;
    case sat::CecStatus::kUndecided:
      std::printf("UNDECIDED: conflict budget (%lld) exhausted\n",
                  static_cast<long long>(limits.conflict_budget));
      return kExitCecUndecided;
    case sat::CecStatus::kNotEquivalent:
      break;
  }
  // Print the counterexample as a PLA-style minterm so it pastes straight
  // into the contest's data files: input cube, then each circuit's value.
  std::string cube;
  for (const std::uint8_t v : result.counterexample) {
    cube += v != 0 ? '1' : '0';
  }
  const std::size_t o = result.failing_output;
  std::printf("NOT EQUIVALENT on output %zu\ncounterexample %s  (%s -> %d, "
              "%s -> %d)\n",
              o, cube.c_str(), paths[0].c_str(),
              a.eval_row(result.counterexample)[o] ? 1 : 0, paths[1].c_str(),
              b.eval_row(result.counterexample)[o] ? 1 : 0);
  if (!cex_out.empty()) {
    // Grow a Dataset-compatible cube dump: one labeled minterm per
    // NOT_EQUIVALENT verdict, labeled by circuit a (the reference),
    // replayable through Aig::simulate / the PLA loaders.
    data::Dataset dump;
    if (std::filesystem::exists(cex_out)) {
      dump = pla::read_pla_file(cex_out).to_dataset();
    }
    sat::append_cex_minterm(result.counterexample, a, &dump, o);
    pla::write_pla_file(pla::Pla::from_dataset(dump), cex_out);
    std::printf("appended counterexample to %s (%zu minterm(s))\n",
                cex_out.c_str(), dump.num_rows());
  }
  return kExitCecNotEquivalent;
}

// ------------------------------------------------------------------ serve

std::atomic<bool> g_serve_interrupted{false};

void serve_signal_handler(int) { g_serve_interrupted.store(true); }

int cmd_serve(const std::vector<std::string>& args) {
  server::ServerOptions options;
  options.port = 7333;
  options.service.cache_dir = ".lsml-serve-cache";
  bool stdio = false;
  OptRequestFlags opt_flags("fast", 3);
  std::string trace_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    std::uint64_t u = 0;
    switch (opt_flags.try_flag(args, &i)) {
      case OptRequestFlags::Status::kConsumed:
        continue;
      case OptRequestFlags::Status::kBad:
        return kExitUsage;
      case OptRequestFlags::Status::kNotMine:
        break;
    }
    if (args[i] == "--host") {
      if (!flag_value(args, &i, &options.host)) {
        return kExitUsage;
      }
    } else if (args[i] == "--port") {
      int port = 0;
      if (!flag_value(args, &i, &value) || !parse_int(value, &port) ||
          port < 0 || port > 65535) {
        return usage_error("--port must be in [0, 65535] (0 = ephemeral)");
      }
      options.port = port;
    } else if (args[i] == "--stdio") {
      stdio = true;
    } else if (args[i] == "--threads") {
      if (!flag_value(args, &i, &value) ||
          !parse_int(value, &options.num_threads) ||
          options.num_threads < 0 || options.num_threads > 4096) {
        return usage_error("--threads must be in [0, 4096] (0 = hardware)");
      }
    } else if (args[i] == "--max-request-bytes") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u) || u == 0) {
        return usage_error("--max-request-bytes must be a positive integer");
      }
      options.max_request_bytes = u;
    } else if (args[i] == "--max-connections") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return usage_error(
            "--max-connections must be a non-negative integer (0 = "
            "unlimited)");
      }
      options.max_connections = u;
    } else if (args[i] == "--models") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return usage_error("--models must be a non-negative integer");
      }
      options.service.model_capacity = u;
    } else if (args[i] == "--shards") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u) || u == 0 ||
          u > 4096) {
        return usage_error("--shards must be in [1, 4096]");
      }
      options.service.store_shards = static_cast<std::size_t>(u);
    } else if (args[i] == "--model-store-bytes") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u)) {
        return usage_error(
            "--model-store-bytes must be a non-negative integer (0 = "
            "uncapped)");
      }
      options.service.model_store_bytes = u;
    } else if (args[i] == "--cache") {
      if (!flag_value(args, &i, &options.service.cache_dir)) {
        return kExitUsage;
      }
    } else if (args[i] == "--no-cache") {
      options.service.cache_dir.clear();
    } else if (args[i] == "--trace-out") {
      if (!flag_value(args, &i, &trace_out)) {
        return kExitUsage;
      }
    } else if (args[i] == "-v") {
      options.verbosity = 1;
    } else if (args[i] == "-vv") {
      options.verbosity = 2;
    } else {
      return usage_error("unknown serve option " + args[i]);
    }
  }

  // The optimization request every learn request runs under, and the
  // default the synth op's per-request overrides start from. Installed
  // process-wide before the Service exists (the documented
  // set_default_opt_request contract); requests cannot change it, only a
  // restart can.
  if (!opt_flags.finish()) {
    return kExitUsage;  // a bad --opt-script is a bad command line
  }
  const synth::OptRequest& request = opt_flags.request();
  synth::set_default_opt_request(request);

  if (!trace_out.empty()) {
    obs::Tracer::enable();
  }

  if (stdio) {
    server::Service service(options.service);
    const std::uint64_t answered = service.serve_stream(
        std::cin, std::cout, options.max_request_bytes);
    std::fprintf(stderr, "lsml serve: stdin closed after %llu request(s)\n",
                 static_cast<unsigned long long>(answered));
    export_trace(trace_out);
    return kExitOk;
  }

  server::Server server(options);
  server.start();
  const std::size_t workers =
      options.num_threads > 0
          ? static_cast<std::size_t>(options.num_threads)
          : core::ThreadPool::default_num_threads();
  std::printf("lsml serve: listening on %s:%d (%zu event loops, %zu pool "
              "workers, opt %s%s)\n",
              options.host.c_str(), server.port(), workers + 1, workers,
              request.script_display().c_str(),
              request.options.verify_equivalence ? ", --verify" : "");
  if (!options.service.cache_dir.empty()) {
    std::printf("lsml serve: model store: %s\n",
                options.service.cache_dir.c_str());
  }
  std::fflush(stdout);

  g_serve_interrupted.store(false);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  while (!g_serve_interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  server.stop();
  export_trace(trace_out);

  const server::ServiceStats& stats = server.service().stats();
  std::printf("lsml serve: stopped after %llu request(s) on %llu "
              "connection(s), %llu error(s)\n",
              static_cast<unsigned long long>(stats.requests.load()),
              static_cast<unsigned long long>(
                  server.stats().connections.load()),
              static_cast<unsigned long long>(stats.errors.load()));
  return kExitOk;
}

// ------------------------------------------------------------------ query

int cmd_query(const std::vector<std::string>& args) {
  std::string host = "127.0.0.1";
  int port = 7333;
  std::int64_t deadline_ms = 0;
  std::string learner = "dt";
  std::string valid_path;
  std::string script;
  std::uint64_t seed = 2020;
  bool have_seed = false;
  std::uint64_t conflicts = 0;
  bool have_conflicts = false;
  bool verify = false;
  std::int64_t watch_sec = 0;
  std::uint64_t watch_count = 0;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    std::uint64_t u = 0;
    if (args[i] == "--host") {
      if (!flag_value(args, &i, &host)) {
        return kExitUsage;
      }
    } else if (args[i] == "--port") {
      if (!flag_value(args, &i, &value) || !parse_int(value, &port) ||
          port <= 0 || port > 65535) {
        return usage_error("--port must be in [1, 65535]");
      }
    } else if (args[i] == "--deadline-ms") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u) || u == 0) {
        return usage_error("--deadline-ms must be a positive integer");
      }
      deadline_ms = static_cast<std::int64_t>(u);
    } else if (args[i] == "--learner") {
      if (!flag_value(args, &i, &learner)) {
        return kExitUsage;
      }
    } else if (args[i] == "--valid") {
      if (!flag_value(args, &i, &valid_path)) {
        return kExitUsage;
      }
    } else if (args[i] == "--script") {
      if (!flag_value(args, &i, &script)) {
        return kExitUsage;
      }
    } else if (args[i] == "--seed") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &seed)) {
        return kExitUsage;
      }
      have_seed = true;
    } else if (args[i] == "--conflicts") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &conflicts)) {
        return kExitUsage;
      }
      have_conflicts = true;
    } else if (args[i] == "--verify") {
      verify = true;
    } else if (args[i] == "--watch") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &u) || u == 0 ||
          u > 3600) {
        return usage_error("--watch must be in [1, 3600] seconds");
      }
      watch_sec = static_cast<std::int64_t>(u);
    } else if (args[i] == "--count") {
      if (!flag_value(args, &i, &value) || !parse_u64(value, &watch_count) ||
          watch_count == 0) {
        return usage_error("--count must be a positive integer");
      }
    } else if (args[i] == "-" || args[i][0] != '-') {
      positional.push_back(args[i]);
    } else {
      return usage_error("unknown query option " + args[i]);
    }
  }
  const std::string what = positional.empty() ? "-" : positional[0];

  if (watch_sec > 0 || (watch_count > 0 && what == "stats")) {
    if (what != "stats") {
      return usage_error("--watch only applies to `query stats`");
    }
    if (watch_sec == 0) {
      return usage_error("--count needs --watch SEC");
    }
    server::Client client;
    try {
      client.connect(host, port);
      server::Json request = server::Json::object();
      request.set("type", "stats");
      const std::string request_line = request.dump();
      const auto sample = [&client, &request_line] {
        return server::Json::parse(client.roundtrip(request_line));
      };
      server::Json prev = sample();
      auto prev_time = std::chrono::steady_clock::now();
      std::printf("%10s %10s %10s %10s %10s %12s %10s %8s\n", "req/s",
                  "err/s", "learn/s", "eval/s", "sweep/s", "rows/s",
                  "evict/s", "models");
      std::fflush(stdout);
      for (std::uint64_t tick = 0; watch_count == 0 || tick < watch_count;
           ++tick) {
        std::this_thread::sleep_for(std::chrono::seconds(watch_sec));
        const server::Json cur = sample();
        const auto now = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(now - prev_time).count();
        const auto rate = [&cur, &prev, secs](const char* key) {
          return (cur.at(key).as_double() - prev.at(key).as_double()) /
                 (secs > 0.0 ? secs : 1.0);
        };
        std::printf(
            "%10.1f %10.1f %10.1f %10.1f %10.1f %12.1f %10.1f %8lld\n",
            rate("requests"), rate("errors"), rate("learns"), rate("evals"),
            rate("eval_sweeps"), rate("eval_rows"), rate("model_evictions"),
            static_cast<long long>(cur.at("models_cached").as_int()));
        std::fflush(stdout);
        prev = cur;
        prev_time = now;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lsml: %s\n", e.what());
      return kExitRuntime;
    }
    return kExitOk;
  }

  // Build the request list before connecting, so usage errors never need
  // a live server.
  std::vector<std::string> request_lines;
  const auto with_deadline = [&](server::Json request) {
    if (deadline_ms > 0) {
      request.set("deadline_ms", deadline_ms);
    }
    return request.dump();
  };
  try {
    if (what == "-") {
      std::string line;
      while (std::getline(std::cin, line)) {
        if (line.empty()) {
          continue;
        }
        if (deadline_ms > 0) {
          // --deadline-ms applies to raw lines too: inject it unless the
          // request already carries its own.
          try {
            server::Json request = server::Json::parse(line);
            if (request.is_object() && !request.has("deadline_ms")) {
              request.set("deadline_ms", deadline_ms);
              line = request.dump();
            }
          } catch (const std::exception&) {
            // Not parseable here; forward verbatim and let the server
            // report the protocol error.
          }
        }
        request_lines.push_back(line);
      }
    } else if (what == "ping" || what == "stats" || what == "metrics") {
      server::Json request = server::Json::object();
      request.set("type", what);
      request_lines.push_back(with_deadline(std::move(request)));
    } else if (what == "learn") {
      if (positional.size() != 2) {
        return usage_error("query learn needs a training .pla file");
      }
      server::Json request = server::Json::object();
      request.set("type", "learn");
      request.set("learner", learner);
      request.set("pla", read_text_file(positional[1]));
      if (!valid_path.empty()) {
        request.set("valid_pla", read_text_file(valid_path));
      }
      if (have_seed) {
        request.set("seed", seed);
      }
      request_lines.push_back(with_deadline(std::move(request)));
    } else if (what == "eval") {
      if (positional.size() < 3) {
        return usage_error(
            "query eval needs a model id and at least one minterm");
      }
      server::Json request = server::Json::object();
      request.set("type", "eval");
      request.set("model", positional[1]);
      server::Json inputs = server::Json::array();
      for (std::size_t i = 2; i < positional.size(); ++i) {
        inputs.push_back(server::Json(positional[i]));
      }
      request.set("inputs", std::move(inputs));
      request_lines.push_back(with_deadline(std::move(request)));
    } else if (what == "synth") {
      if (positional.size() != 2) {
        return usage_error("query synth needs an input .aag file");
      }
      server::Json request = server::Json::object();
      request.set("type", "synth");
      request.set("aag", read_text_file(positional[1]));
      if (!script.empty()) {
        request.set("script", script);
      }
      if (verify) {
        request.set("verify", true);
      }
      if (have_seed) {
        request.set("seed", seed);
      }
      request_lines.push_back(with_deadline(std::move(request)));
    } else if (what == "cec") {
      if (positional.size() != 3) {
        return usage_error("query cec needs two .aag files");
      }
      server::Json request = server::Json::object();
      request.set("type", "cec");
      request.set("a", read_text_file(positional[1]));
      request.set("b", read_text_file(positional[2]));
      if (have_conflicts) {
        request.set("conflicts", conflicts);
      }
      request_lines.push_back(with_deadline(std::move(request)));
    } else {
      return usage_error("unknown query '" + what +
                         "' (expected ping, stats, metrics, learn, eval, "
                         "synth, cec, or - for raw JSON lines)");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsml: %s\n", e.what());
    return kExitRuntime;
  }
  if (request_lines.empty()) {
    std::fprintf(stderr, "lsml: no requests on stdin\n");
    return kExitRuntime;
  }

  server::Client client;
  bool all_ok = true;
  try {
    client.connect(host, port);
    for (const std::string& line : request_lines) {
      const std::string response = client.roundtrip(line);
      try {
        const server::Json parsed = server::Json::parse(response);
        const bool ok = parsed.is_object() && parsed.at("ok").as_bool();
        if (!ok) {
          all_ok = false;
        }
        // `metrics` is a Prometheus text exposition wrapped in JSON for
        // the wire; unwrap it so the output pipes straight into
        // promtool/grep.
        if (ok && what == "metrics" && parsed.has("text")) {
          std::printf("%s", parsed.at("text").as_string().c_str());
        } else {
          std::printf("%s\n", response.c_str());
        }
      } catch (const std::exception&) {
        std::printf("%s\n", response.c_str());
        all_ok = false;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsml: %s\n", e.what());
    return kExitRuntime;
  }
  return all_ok ? kExitOk : kExitRuntime;
}

}  // namespace

int run(const std::vector<std::string>& args) {
  if (args.empty() || args[0] == "help" || args[0] == "--help" ||
      args[0] == "-h") {
    std::printf("%s", kUsage);
    return args.empty() ? kExitUsage : kExitOk;
  }
  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "gen") {
      return cmd_gen(rest);
    }
    if (command == "ls") {
      return cmd_ls(rest);
    }
    if (command == "run") {
      return cmd_run(rest);
    }
    if (command == "synth") {
      return cmd_synth(rest);
    }
    if (command == "cec") {
      try {
        return cmd_cec(rest);
      } catch (const std::exception& e) {
        // 0/1/2 are verdicts; anything that prevented a verdict is 3.
        std::fprintf(stderr, "lsml: %s\n", e.what());
        return kExitCecError;
      }
    }
    if (command == "serve") {
      return cmd_serve(rest);
    }
    if (command == "query") {
      return cmd_query(rest);
    }
    if (command == "teams") {
      return cmd_teams();
    }
    return usage_error("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsml: %s\n", e.what());
    return kExitRuntime;
  }
}

}  // namespace lsml::cli
