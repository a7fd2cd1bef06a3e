#include "suite/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "aig/aig_io.hpp"
#include "core/bits.hpp"
#include "core/thread_pool.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "suite/manifest.hpp"

namespace fs = std::filesystem;

namespace lsml::suite {
namespace {

/// One (entry, benchmark) pair the cache could not serve.
struct PendingTask {
  std::size_t entry = 0;
  std::size_t bench = 0;
  std::uint64_t hash = 0;
};

std::string to_aag_text(const aig::Aig& circuit) {
  std::ostringstream os;
  aig::write_aag(circuit, os);
  return os.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  os << text;
}

/// Fixed-precision decimal for leaderboards: deterministic across runs.
std::string fixed6(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// Benchmark names and team keys are user-controlled (file stems, registry
/// names); escape them so the leaderboard stays parseable JSON.
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

std::string leaderboard_csv(const std::vector<portfolio::TeamRun>& runs,
                            const std::vector<std::string>& keys) {
  // Pass wall times stay out of the leaderboards deliberately: artifacts
  // are byte-deterministic in (inputs, entries, seed, pipeline), and
  // timings are not. They live in the cache entries and `lsml synth`.
  std::ostringstream os;
  os << "team,team_key,benchmark,method,train_acc,valid_acc,test_acc,"
        "num_ands,num_levels,raw_ands,ands_saved,synth_passes,verified,"
        "script\n";
  for (std::size_t e = 0; e < runs.size(); ++e) {
    for (const auto& r : runs[e].results) {
      // Team keys and benchmark names come from registry names and on-disk
      // file stems, so they get the same quoting as the method string.
      os << runs[e].team << ',' << csv_quote(keys[e]) << ','
         << csv_quote(r.benchmark) << ','
         << csv_quote(r.method) << ',' << fixed6(r.train_acc) << ','
         << fixed6(r.valid_acc) << ',' << fixed6(r.test_acc) << ','
         << r.num_ands << ',' << r.num_levels << ','
         << r.synth_ands_in() << ',' << r.synth_ands_saved() << ','
         << r.synth_trace.size() << ','
         << synth::to_string(r.verified) << ','
         << csv_quote(r.opt_script) << '\n';
    }
  }
  return os.str();
}

std::string leaderboard_json(const std::vector<portfolio::TeamRun>& runs,
                             const std::vector<std::string>& keys,
                             const std::vector<std::string>& benchmarks,
                             const RunnerOptions& options) {
  // Rank by average test accuracy (Table III order); stable so ties keep
  // entry order and reruns are byte-identical.
  std::vector<std::size_t> order(runs.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&runs](std::size_t a, std::size_t b) {
                     return runs[a].avg_test_acc() > runs[b].avg_test_acc();
                   });
  std::ostringstream os;
  os << "{\n  \"schema\": \"lsml-leaderboard-v4\",\n  \"seed\": "
     << options.seed << ",\n  \"opt\": {\"script\": \""
     << json_escape(options.opt.script_display()) << "\", \"node_budget\": "
     << options.opt.options.node_budget << ", \"max_rounds\": "
     << options.opt.options.max_rounds << ", \"verify\": "
     << (options.opt.options.verify_equivalence ? "true" : "false")
     << "},\n  \"benchmarks\": [";
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    os << (b == 0 ? "" : ", ") << '"' << json_escape(benchmarks[b]) << '"';
  }
  os << "],\n  \"teams\": [\n";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const portfolio::TeamRun& run = runs[order[i]];
    os << "    {\"rank\": " << (i + 1) << ", \"team\": " << run.team
       << ", \"key\": \"" << json_escape(keys[order[i]])
       << "\", \"avg_test_acc\": "
       << fixed6(run.avg_test_acc()) << ", \"avg_ands\": "
       << fixed6(run.avg_ands()) << ", \"avg_levels\": "
       << fixed6(run.avg_levels()) << ", \"overfit\": "
       << fixed6(run.overfit()) << ", \"avg_raw_ands\": "
       << fixed6(run.avg_synth_ands_in()) << ", \"avg_ands_saved\": "
       << fixed6(run.avg_synth_saved()) << ", \"verified\": "
       << fixed6(run.verified_fraction()) << "}"
       << (i + 1 < order.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

std::string entry_key(const portfolio::ContestEntry& entry) {
  if (!entry.factory.name().empty()) {
    return entry.factory.name();
  }
  return "team" + std::to_string(entry.team);
}

RunnerReport run_contest_on(const std::vector<portfolio::ContestEntry>& entries,
                            const std::vector<oracle::Benchmark>& suite,
                            const RunnerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const ResultCache cache(options.cache_dir);
  // Every task below (and every learner inside it) optimizes through this
  // request; installed before workers spawn, restored when the run ends.
  const synth::ScopedOptRequest scoped_opt(options.opt);

  std::vector<std::string> keys;
  keys.reserve(entries.size());
  std::unordered_set<std::string> unique_keys;
  for (const auto& entry : entries) {
    keys.push_back(entry_key(entry));
    if (!unique_keys.insert(keys.back()).second) {
      throw std::invalid_argument(
          "run_contest_on: duplicate contest entry key '" + keys.back() +
          "' (artifacts and cache rows would collide)");
    }
  }

  RunnerReport report;
  report.runs.resize(entries.size());
  report.benchmarks.reserve(suite.size());
  for (const auto& bench : suite) {
    report.benchmarks.push_back(bench.name);
  }

  // The request changes every task's circuit, so its fingerprint is part
  // of every key: results computed under one script/budget configuration
  // are never served under another.
  const std::uint64_t pipeline_salt =
      core::hash_combine(options.config_salt, options.opt.fingerprint());
  std::vector<std::uint64_t> bench_hash(suite.size());
  for (std::size_t b = 0; b < suite.size(); ++b) {
    bench_hash[b] = core::hash_combine(
        task_content_hash(suite[b], options.seed), pipeline_salt);
  }
  // The team number seeds the per-task RNG stream (contest_rng), so it is
  // part of the key: the same factory re-run under a different number is a
  // different task and must never hit the other's entries.
  const auto task_key = [&](std::size_t e, std::size_t b) {
    return core::hash_combine(bench_hash[b],
                              static_cast<std::uint64_t>(entries[e].team));
  };

  // Circuits stream straight to per-task files (paths are unique, so the
  // parallel writes never conflict) instead of buffering every AIGER body
  // for the whole run. The aig/ tree mirrors exactly this run: leftovers
  // from previous configurations are dropped up front.
  if (options.write_artifacts) {
    std::error_code ec;
    fs::remove_all(fs::path(options.out_dir) / "aig", ec);
    // Stale leaderboards go too: if this run fails midway, the out-dir
    // must not pair a previous run's metrics with this run's circuits.
    fs::remove(fs::path(options.out_dir) / "leaderboard.csv", ec);
    fs::remove(fs::path(options.out_dir) / "leaderboard.json", ec);
    for (const auto& key : keys) {
      fs::create_directories(fs::path(options.out_dir) / "aig" / key);
    }
  }
  const auto artifact_path = [&](std::size_t e, std::size_t b) {
    return (fs::path(options.out_dir) / "aig" / keys[e] /
            (suite[b].name + ".aag"))
        .string();
  };

  std::vector<PendingTask> pending;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    report.runs[e].team = entries[e].team;
    report.runs[e].results.resize(suite.size());
    for (std::size_t b = 0; b < suite.size(); ++b) {
      const std::uint64_t key = task_key(e, b);
      if (auto hit = cache.load(keys[e], suite[b].name, key,
                                /*want_aag=*/options.write_artifacts)) {
        report.runs[e].results[b] = std::move(hit->result);
        if (options.write_artifacts) {
          write_text_file(artifact_path(e, b), hit->aag);
        }
        ++report.cache_hits;
      } else {
        pending.push_back({e, b, key});
      }
    }
  }
  report.cache_misses = static_cast<int>(pending.size());

  // Per-task telemetry: a span per contest task plus a wall-time
  // histogram. Side-channel only — leaderboard artifacts deliberately
  // exclude wall times, so these never touch an artifact byte.
  obs::Registry& obs_reg = obs::Registry::instance();
  obs::Counter& task_counter = obs_reg.counter("lsml_suite_tasks_total");
  obs::Histogram& task_us = obs_reg.histogram("lsml_suite_task_us");
  const auto run_task = [&](std::size_t t) {
    const PendingTask& task = pending[t];
    const portfolio::ContestEntry& entry = entries[task.entry];
    const oracle::Benchmark& bench = suite[task.bench];
    obs::ScopedSpan task_span("task", "suite");
    const auto task_start = std::chrono::steady_clock::now();
    const std::unique_ptr<learn::Learner> learner = entry.factory.make();
    core::Rng rng = portfolio::contest_rng(options.seed, entry.team, bench.id);
    aig::Aig circuit{0};
    portfolio::BenchmarkResult result =
        portfolio::evaluate_on(*learner, bench, rng, &circuit);
    // Only serialize the circuit when something consumes the text.
    std::string text;
    if (cache.enabled() || options.write_artifacts) {
      text = to_aag_text(circuit);
    }
    cache.store(keys[task.entry], bench.name, task.hash, {result, text});
    if (options.write_artifacts) {
      write_text_file(artifact_path(task.entry, task.bench), text);
    }
    if (options.verbosity >= 2) {
      std::fprintf(stderr, "  %s  %s  done\n", keys[task.entry].c_str(),
                   bench.name.c_str());
    }
    report.runs[task.entry].results[task.bench] = std::move(result);
    task_counter.add(1);
    const auto task_end = std::chrono::steady_clock::now();
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        task_end - task_start)
                        .count();
    task_us.record(us > 0 ? static_cast<std::uint64_t>(us) : 0);
  };
  core::ThreadPool::run_indexed(pending.size(), options.num_threads,
                                run_task);

  if (options.write_artifacts) {
    report.leaderboard_csv_path =
        (fs::path(options.out_dir) / "leaderboard.csv").string();
    report.leaderboard_json_path =
        (fs::path(options.out_dir) / "leaderboard.json").string();
    write_text_file(report.leaderboard_csv_path,
                    leaderboard_csv(report.runs, keys));
    write_text_file(
        report.leaderboard_json_path,
        leaderboard_json(report.runs, keys, report.benchmarks, options));
  }

  report.elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  report.budget_exceeded =
      options.time_budget_ms > 0 &&
      report.elapsed_ms > static_cast<double>(options.time_budget_ms);
  if (options.verbosity >= 1) {
    if (report.budget_exceeded) {
      std::fprintf(stderr, "contest exceeded time budget: %.0f ms > %lld ms\n",
                   report.elapsed_ms,
                   static_cast<long long>(options.time_budget_ms));
    }
    std::fprintf(stderr,
                 "suite run: %zu tasks, %d from cache, %d computed "
                 "(%.0f ms)\n",
                 entries.size() * suite.size(), report.cache_hits,
                 report.cache_misses, report.elapsed_ms);
  }
  return report;
}

RunnerReport run_suite_dir(const std::string& suite_dir,
                           const std::vector<portfolio::ContestEntry>& entries,
                           const RunnerOptions& options) {
  const std::vector<oracle::Benchmark> suite = load_suite(suite_dir);
  if (suite.empty()) {
    throw std::runtime_error("run_suite_dir: no benchmark triples in " +
                             suite_dir);
  }
  if (options.verbosity >= 1) {
    std::fprintf(stderr, "loaded %zu benchmarks from %s\n", suite.size(),
                 suite_dir.c_str());
  }
  return run_contest_on(entries, suite, options);
}

}  // namespace lsml::suite
