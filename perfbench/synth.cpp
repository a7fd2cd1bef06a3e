// Workload `synth`: the `lsml synth` path over a corpus of learner circuits.
//
// The corpus is a seeded draw of (team, benchmark) pairs from the
// calibration table, filled to a fixed calibrated cost so that every seed
// hands the optimizer the same amount of work. Set-up makes the circuits
// the way a user would: each drawn team fits its drawn contest benchmarks
// under a cleanup-only ("c"), uncapped, one-round request, and the raw
// circuits are read back from the AIGER artifacts. Each repetition gives every circuit one
// ScriptSearch::optimize call with resyn2fs, no gate budget and SAT
// verification on. Approximation never runs here: rw, rf, b and the sat
// layer (fs sweeping, the cec verify) do all the work.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>

#include "aig/aig_io.hpp"
#include "core/config.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "portfolio/team.hpp"
#include "suite/generate.hpp"
#include "suite/manifest.hpp"
#include "suite/runner.hpp"
#include "synth_costs.inc"
#include "synth/script_search.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kRowsPerSplit = 400;
constexpr int kWorkers = 4;
constexpr std::size_t kCheckRows = 256;
// The contest's gate budget: larger raw circuits (uncapped team 3
// ensembles) would turn the corpus into a handful of outliers.
constexpr std::uint32_t kMaxCircuitAnds = 5000;
// The corpus is filled to kCorpusCost calibrated optimize seconds (see
// synth_costs.inc), within kCorpusTolerance, from circuits that each take
// at most kMaxCircuitCost: every seed hands the optimizer the same amount
// of work, and no single SAT-heavy circuit dominates a repetition.
constexpr double kCorpusCost = 4.0;
constexpr double kCorpusTolerance = 0.02;
constexpr double kMaxCircuitCost = 0.4;
// Then the benchmark seed picks one of the draw seeds whose measured pass
// (kSynthDraws) is within kDrawTolerance of the median in wall and CPU.
constexpr double kDrawTolerance = 0.03;
constexpr int kCalibrationDraws = 60;

struct Circuit {
  std::string name;  ///< "<team key>/<benchmark>"
  lsml::aig::Aig aig{0};
};

lsml::synth::OptRequest request() {
  // `lsml synth --script resyn2fs --max-gates 0 --verify` (one round).
  lsml::synth::OptRequest r;
  r.script = "resyn2fs";
  r.options.node_budget = 0;
  r.options.max_rounds = 1;
  r.options.verify_equivalence = true;
  return r;
}

/// Raw learner circuits of each team on its benchmark ids: per team, `lsml
/// run --scale smoke --opt-script c --max-gates 0 --opt-rounds 1`, read
/// back from the AIGER artifacts. Keeps one circuit per structure, of at
/// most kMaxCircuitAnds.
std::vector<Circuit> raw_circuits(const std::map<int, std::set<int>>& ids_by_team,
                                  const std::string& dir) {
  std::set<int> all_ids;
  for (const auto& [team, ids] : ids_by_team) {
    all_ids.insert(ids.begin(), ids.end());
  }
  const std::string suite_dir = dir + "/suite";
  fresh_dir(suite_dir);
  for (const int id : all_ids) {
    lsml::suite::GenerateOptions gen;
    gen.first = id;
    gen.last = id;
    gen.rows_per_split = kRowsPerSplit;
    lsml::suite::generate_suite(suite_dir, gen);
  }
  const auto suite = lsml::suite::load_suite(suite_dir);
  lsml::portfolio::TeamOptions team_options;
  team_options.scale = lsml::core::Scale::kSmoke;
  team_options.node_budget = 0xffffffffu;
  lsml::suite::RunnerOptions options;
  options.cache_dir.clear();
  options.num_threads = kWorkers;
  options.config_salt = static_cast<std::uint64_t>(lsml::core::Scale::kSmoke);
  options.opt.script = std::string(1, 'c');  // cleanup only
  options.opt.options.node_budget = 0;
  options.opt.options.max_rounds = 1;

  std::vector<Circuit> out;
  std::set<std::uint64_t> seen;
  for (const auto& [team, ids] : ids_by_team) {
    std::vector<lsml::oracle::Benchmark> benchmarks;
    for (const auto& bench : suite) {
      if (ids.count(bench.id) != 0) {
        benchmarks.push_back(bench);
      }
    }
    const auto entries = lsml::portfolio::contest_entries({team}, team_options);
    options.out_dir = dir + "/raw";
    lsml::suite::run_contest_on(entries, benchmarks, options);
    for (const auto& bench : benchmarks) {
      Circuit c;
      c.name = lsml::suite::entry_key(entries.front()) + "/" + bench.name;
      c.aig = lsml::aig::read_aag_file(options.out_dir + "/aig/" + c.name +
                                       ".aag");
      if (c.aig.num_ands() > 0 && c.aig.num_ands() <= kMaxCircuitAnds &&
          seen.insert(c.aig.content_hash()).second) {
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

std::vector<Circuit> make_corpus(std::uint64_t draw, const std::string& dir) {
  std::vector<const CircuitCost*> pool;
  for (const CircuitCost& c : kCircuitCosts) {
    if (c.seconds <= kMaxCircuitCost) {
      pool.push_back(&c);
    }
  }
  lsml::core::Rng rng(lsml::core::hash_combine(draw, 0x5e7c0de5ULL));
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.below(i)]);
  }
  std::map<int, std::set<int>> ids_by_team;
  double total = 0.0;
  for (const CircuitCost* c : pool) {
    int team = 0;
    int id = 0;
    if (total + c->seconds <= kCorpusCost * (1.0 + kCorpusTolerance) &&
        std::sscanf(c->name, "team%d/ex%d", &team, &id) == 2) {
      total += c->seconds;
      ids_by_team[team].insert(id);
    }
  }
  if (total < kCorpusCost * (1.0 - kCorpusTolerance)) {
    throw std::runtime_error("synth: the calibration table holds only " +
                             std::to_string(total) + " s of circuits");
  }
  return raw_circuits(ids_by_team, dir);
}

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  std::vector<double> call_s;
  std::uint64_t digest = 0;  ///< over every output's structure
  std::vector<lsml::synth::VerifyStatus> verdicts;
  std::uint64_t ands_in = 0;
  std::uint64_t ands_out = 0;
  std::uint64_t synth_runs = 0;
  std::uint64_t sat_solves = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t sim_words = 0;
  std::map<std::string, PassTotals> passes;
};

/// One pass over the corpus; `outputs`, when given, receives the
/// optimized circuits.
Rep optimize_corpus(const std::vector<Circuit>& corpus,
                    std::vector<lsml::aig::Aig>* outputs = nullptr) {
  lsml::synth::PassManager::clear_memo();
  Rep rep;
  const std::uint64_t runs0 = counter("lsml_synth_runs_total");
  const std::uint64_t solves0 = counter("lsml_sat_solves_total");
  const std::uint64_t conflicts0 = counter("lsml_sat_conflicts_total");
  const std::uint64_t props0 = counter("lsml_sat_propagations_total");
  const std::uint64_t words0 = counter("lsml_sim_words_total");
  const auto passes0 = pass_totals();
  start_rss_window();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  const lsml::synth::ScriptSearch search(request());
  for (const Circuit& c : corpus) {
    const Clock::time_point t = Clock::now();
    lsml::synth::OptOutcome outcome;
    {
      lsml::obs::ScopedSpan span("optimize", "perfbench");
      outcome = search.optimize(c.aig);
    }
    rep.call_s.push_back(since(t));
    rep.digest = lsml::core::hash_combine(
        rep.digest, outcome.result.circuit.content_hash());
    rep.verdicts.push_back(outcome.result.verify);
    rep.ands_in += c.aig.num_ands();
    rep.ands_out += outcome.result.circuit.num_ands();
    if (outputs != nullptr) {
      outputs->push_back(std::move(outcome.result.circuit));
    }
  }
  rep.wall_s = since(t0);
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.rss_mb = window_peak_rss_mb();
  rep.synth_runs = counter("lsml_synth_runs_total") - runs0;
  rep.sat_solves = counter("lsml_sat_solves_total") - solves0;
  rep.sat_conflicts = counter("lsml_sat_conflicts_total") - conflicts0;
  rep.sat_propagations = counter("lsml_sat_propagations_total") - props0;
  rep.sim_words = counter("lsml_sim_words_total") - words0;
  rep.passes = pass_delta(passes0, pass_totals());
  return rep;
}

/// Every output must be SAT-certified exact and agree with its input on
/// seeded random minterms under scalar eval_row.
void check_outputs(const Args& args, const std::vector<Circuit>& corpus,
                   const std::vector<lsml::aig::Aig>& outputs, const Rep& rep,
                   Report* report) {
  lsml::core::Rng rng(lsml::core::hash_combine(args.seed, 0xc4ec4ULL));
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const lsml::aig::Aig& in = corpus[i].aig;
    const lsml::aig::Aig& out = outputs[i];
    if (rep.verdicts[i] != lsml::synth::VerifyStatus::kExact) {
      report->fail(corpus[i].name + ": verify says " +
                   lsml::synth::to_string(rep.verdicts[i]));
      continue;
    }
    std::vector<std::uint8_t> row(in.num_pis());
    for (std::size_t r = 0; r < kCheckRows; ++r) {
      for (auto& bit : row) {
        bit = static_cast<std::uint8_t>(rng.next() & 1u);
      }
      if (in.eval_row(row) != out.eval_row(row)) {
        report->fail(corpus[i].name + ": output differs from input on a "
                                      "random minterm");
        break;
      }
    }
  }
}

}  // namespace

void run_synth(const Args& args, Report* report) {
  const std::string dir = args.work_dir + "/synth";
  const std::uint64_t draw = pick_draw(kSynthDraws, args.seed, kDrawTolerance);
  std::vector<double> setups;
  std::vector<Circuit> corpus;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    corpus = make_corpus(draw, dir);
    setups.push_back(since(t0));
  }
  std::uint64_t largest = 0;
  for (const Circuit& c : corpus) {
    largest = std::max<std::uint64_t>(largest, c.aig.num_ands());
  }
  std::printf("synth: draw %llu, %zu circuits, largest %llu ANDs, resyn2fs "
              "with verify\n",
              static_cast<unsigned long long>(draw), corpus.size(),
              static_cast<unsigned long long>(largest));

  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
  const Clock::time_point start = Clock::now();
  while (true) {
    if (plain.empty()) {
      std::vector<lsml::aig::Aig> outputs;
      plain.push_back(optimize_corpus(corpus, &outputs));
      check_outputs(args, corpus, outputs, plain.front(), report);
    } else {
      plain.push_back(optimize_corpus(corpus));
    }
    if (args.trace) {
      lsml::obs::Tracer::enable(std::size_t{1} << 19);
      traced.push_back(optimize_corpus(corpus));
      lsml::obs::Tracer::disable();
      spans = collect_spans();
      dropped += lsml::obs::Tracer::dropped();
    }
    const double per_rep = since(start) / static_cast<double>(plain.size());
    if (since(start) + per_rep > args.seconds) {
      break;
    }
  }

  const Rep& first = plain.front();
  std::vector<const Rep*> all;
  for (const Rep& r : plain) {
    all.push_back(&r);
  }
  for (const Rep& r : traced) {
    all.push_back(&r);
  }
  for (const Rep* r : all) {
    report->attempted += corpus.size();
    if (r != &first && (r->digest != first.digest ||
                        r->synth_runs != first.synth_runs ||
                        r->sat_conflicts != first.sat_conflicts)) {
      report->fail("a repetition did not repeat the first one", corpus.size());
    }
  }
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> calls;
  for (const Rep& r : plain) {
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    calls.insert(calls.end(), r.call_s.begin(), r.call_s.end());
  }
  const double ratio = static_cast<double>(first.ands_out) /
                       static_cast<double>(first.ands_in);
  std::printf("cold-start guard: %llu synth runs, %llu SAT conflicts per rep\n",
              static_cast<unsigned long long>(first.synth_runs),
              static_cast<unsigned long long>(first.sat_conflicts));
  std::printf("%zu passes: wall median %.3f s, cpu median %.3f s, call p50 "
              "%.2f ms; %llu -> %llu ANDs (ratio %.4f)\n",
              plain.size(), median(walls), median(cpus),
              median(calls) * 1e3,
              static_cast<unsigned long long>(first.ands_in),
              static_cast<unsigned long long>(first.ands_out), ratio);

  report->add("setup_s", median(setups));
  // The first repetition runs before a traced one allocates span rings.
  report->add("peak_rss_mb", plain.front().rss_mb);
  report->add("wall_s", median(walls));
  report->add("cpu_s", median(cpus));
  if (!args.trace) {
    return;
  }
  std::vector<double> traced_walls;
  for (const Rep& r : traced) {
    traced_walls.push_back(r.wall_s);
  }
  const double overhead =
      100.0 * (median(traced_walls) - median(walls)) / median(walls);
  double solve_s = 0.0;
  for (const Span& s : spans) {
    if (s.cat == "sat" && s.name == "solve") {
      solve_s += s.dur_us * 1e-6;
    }
  }
  std::printf("trace: %llu span(s) dropped, overhead %.2f%%\n",
              static_cast<unsigned long long>(dropped), overhead);
  add_pass_metrics(first.passes, report);
  report->add("sat.solves", static_cast<double>(first.sat_solves));
  report->add("sat.conflicts", static_cast<double>(first.sat_conflicts));
  report->add("sat.propagations", static_cast<double>(first.sat_propagations));
  report->add("sat.props_per_s",
              solve_s > 0 ? static_cast<double>(traced.back().sat_propagations) /
                                solve_s
                          : 0.0);
  report->add("aig.sim_words", static_cast<double>(first.sim_words));
  report->add("guard.synth_runs", static_cast<double>(first.synth_runs));
  report->add("guard.sat_conflicts", static_cast<double>(first.sat_conflicts));
  report->add("synth.ands_ratio", ratio);
  report->add("trace.overhead_pct", overhead);
  report->add("trace.dropped", static_cast<double>(dropped));
}

/// Calibration behind kCircuitCosts: the raw circuits of all ten teams on
/// every contest benchmark, each optimized once on four workers. A circuit
/// whose verification needs more than kCalibrationConflicts SAT conflicts
/// is left out of the table (it would dominate any corpus).
void print_synth_items(const Args& args) {
  constexpr std::int64_t kCalibrationConflicts = 50000;
  std::map<int, std::set<int>> ids_by_team;
  for (const int team : lsml::portfolio::all_team_numbers()) {
    for (int id = 0; id < 100; ++id) {
      ids_by_team[team].insert(id);
    }
  }
  const std::vector<Circuit> pool =
      raw_circuits(ids_by_team, args.work_dir + "/synth-costs");
  lsml::synth::OptRequest r = request();
  r.options.verify_conflict_budget = kCalibrationConflicts;
  const lsml::synth::ScriptSearch search(r);
  lsml::synth::PassManager::clear_memo();
  std::vector<double> seconds(pool.size());
  std::vector<lsml::synth::VerifyStatus> verdicts(pool.size());
  lsml::core::ThreadPool::run_indexed(pool.size(), kWorkers, [&](std::size_t i) {
    const Clock::time_point t0 = Clock::now();
    verdicts[i] = search.optimize(pool[i].aig).result.verify;
    seconds[i] = since(t0);
  });
  std::printf("// host: %s\n", host_line().c_str());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (verdicts[i] == lsml::synth::VerifyStatus::kExact) {
      std::printf("    {\"%s\", %u, %.4f},\n", pool[i].name.c_str(),
                  pool[i].aig.num_ands(), seconds[i]);
    }
  }
}

/// Calibration behind kSynthDraws: two corpus passes per draw seed.
void print_synth_draws(const Args& args) {
  const std::string dir = args.work_dir + "/draws";
  print_draw_costs(kCalibrationDraws, [&](std::uint64_t draw) {
    const std::vector<Circuit> corpus = make_corpus(draw, dir);
    const Rep a = optimize_corpus(corpus);
    const Rep b = optimize_corpus(corpus);
    return std::make_pair(std::min(a.wall_s, b.wall_s),
                          std::min(a.cpu_s, b.cpu_s));
  });
}

}  // namespace perfbench
