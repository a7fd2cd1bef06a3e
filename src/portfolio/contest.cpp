#include "portfolio/contest.hpp"

#include <algorithm>
#include <sstream>

#include "synth/script_search.hpp"

namespace lsml::portfolio {

namespace {

double mean(const std::vector<BenchmarkResult>& results,
            double (*get)(const BenchmarkResult&)) {
  if (results.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& r : results) {
    total += get(r);
  }
  return total / static_cast<double>(results.size());
}

}  // namespace

double TeamRun::avg_test_acc() const {
  return mean(results, [](const BenchmarkResult& r) { return r.test_acc; });
}
double TeamRun::avg_valid_acc() const {
  return mean(results, [](const BenchmarkResult& r) { return r.valid_acc; });
}
double TeamRun::avg_ands() const {
  return mean(results, [](const BenchmarkResult& r) {
    return static_cast<double>(r.num_ands);
  });
}
double TeamRun::avg_levels() const {
  return mean(results, [](const BenchmarkResult& r) {
    return static_cast<double>(r.num_levels);
  });
}
double TeamRun::overfit() const {
  return mean(results, [](const BenchmarkResult& r) {
    return r.valid_acc - r.test_acc;
  });
}
double TeamRun::avg_synth_ands_in() const {
  return mean(results, [](const BenchmarkResult& r) {
    return static_cast<double>(r.synth_ands_in());
  });
}
double TeamRun::avg_synth_saved() const {
  return mean(results, [](const BenchmarkResult& r) {
    return static_cast<double>(r.synth_ands_saved());
  });
}
double TeamRun::verified_fraction() const {
  return mean(results, [](const BenchmarkResult& r) {
    return r.verified == synth::VerifyStatus::kExact ? 1.0 : 0.0;
  });
}

double TeamRun::total_synth_ms() const {
  double total = 0.0;
  for (const auto& r : results) {
    total += r.synth_ms();
  }
  return total;
}

std::uint32_t BenchmarkResult::synth_ands_in() const {
  return synth::trace_ands_in(synth_trace, num_ands);
}

std::uint32_t BenchmarkResult::synth_ands_saved() const {
  const std::uint32_t in = synth_ands_in();
  return in > num_ands ? in - num_ands : 0;
}

double BenchmarkResult::synth_ms() const {
  return synth::trace_total_ms(synth_trace);
}

core::Rng contest_rng(std::uint64_t seed, int team_number, int benchmark_id) {
  const core::Rng root(seed);
  return root.split(static_cast<std::uint64_t>(team_number),
                    static_cast<std::uint64_t>(benchmark_id));
}

BenchmarkResult evaluate_on(learn::Learner& learner,
                            const oracle::Benchmark& bench, core::Rng& rng,
                            aig::Aig* circuit_out) {
  learn::TrainedModel model = learner.fit(bench.train, bench.valid, rng);
  // The exported-artifact guarantee: whatever the learner did internally,
  // the deliverable respects the default pipeline's gate cap. Portfolio
  // teams enforce their own budget, so this pass almost always no-ops;
  // bare learners entered via --learners rely on it.
  const std::uint32_t budget = synth::default_opt_request().options.node_budget;
  const bool budget_capped = budget > 0 && model.circuit.num_ands() > budget;
  if (budget_capped) {
    synth::BudgetFit fit =
        synth::fit_to_budget(std::move(model.circuit), budget, rng);
    model.circuit = std::move(fit.circuit);
    model.synth_trace.insert(model.synth_trace.end(), fit.trace.begin(),
                             fit.trace.end());
    // The artifact no longer equals whatever finish_model certified.
    model.verified = synth::downgrade(model.verified, fit.change);
    model.method += "+budget";
  }
  // One bound engine scores every split the deliverable is measured on —
  // the word arena and levelized schedule are built once, not per split.
  aig::SimEngine engine(model.circuit);
  if (budget_capped) {
    model.train_acc = learn::circuit_accuracy(engine, bench.train);
    model.valid_acc = learn::circuit_accuracy(engine, bench.valid);
  }
  BenchmarkResult result;
  result.benchmark_id = bench.id;
  result.benchmark = bench.name;
  result.method = model.method;
  result.train_acc = model.train_acc;
  result.valid_acc = model.valid_acc;
  result.test_acc = learn::circuit_accuracy(engine, bench.test);
  result.num_ands = model.circuit.num_ands();
  result.num_levels = model.circuit.num_levels();
  result.synth_trace = std::move(model.synth_trace);
  result.verified = model.verified;
  result.opt_script = std::move(model.opt_script);
  if (circuit_out != nullptr) {
    *circuit_out = std::move(model.circuit);
  }
  return result;
}

std::vector<ParetoPoint> virtual_best_pareto(
    const std::vector<TeamRun>& runs, const std::vector<double>& budgets) {
  std::vector<ParetoPoint> points;
  if (runs.empty()) {
    return points;
  }
  const std::size_t num_benchmarks = runs[0].results.size();
  points.reserve(budgets.size());
  for (const double budget : budgets) {
    double acc_total = 0.0;
    double size_total = 0.0;
    std::size_t counted = 0;
    for (std::size_t b = 0; b < num_benchmarks; ++b) {
      double best_acc = -1.0;
      double best_size = 0.0;
      for (const auto& run : runs) {
        const auto& r = run.results[b];
        if (static_cast<double>(r.num_ands) > budget) {
          continue;
        }
        if (r.test_acc > best_acc) {
          best_acc = r.test_acc;
          best_size = static_cast<double>(r.num_ands);
        }
      }
      if (best_acc >= 0.0) {
        acc_total += best_acc;
        size_total += best_size;
        ++counted;
      }
    }
    if (counted > 0) {
      points.push_back({size_total / static_cast<double>(counted),
                        acc_total / static_cast<double>(counted)});
    }
  }
  return points;
}

std::vector<double> max_accuracy_per_benchmark(
    const std::vector<TeamRun>& runs) {
  if (runs.empty()) {
    return {};
  }
  std::vector<double> best(runs[0].results.size(), 0.0);
  for (const auto& run : runs) {
    for (std::size_t b = 0; b < run.results.size(); ++b) {
      best[b] = std::max(best[b], run.results[b].test_acc);
    }
  }
  return best;
}

std::vector<WinRate> win_rates(const std::vector<TeamRun>& runs) {
  std::vector<WinRate> rates;
  rates.reserve(runs.size());
  for (const auto& run : runs) {
    rates.push_back(WinRate{run.team, 0, 0});
  }
  if (runs.empty()) {
    return rates;
  }
  const std::size_t num_benchmarks = runs[0].results.size();
  for (std::size_t b = 0; b < num_benchmarks; ++b) {
    double best = -1.0;
    for (const auto& run : runs) {
      best = std::max(best, run.results[b].test_acc);
    }
    for (std::size_t t = 0; t < runs.size(); ++t) {
      const double acc = runs[t].results[b].test_acc;
      if (acc == best) {
        ++rates[t].best;
      }
      if (acc >= best - 0.01) {
        ++rates[t].within_top1pct;
      }
    }
  }
  return rates;
}

std::string format_leaderboard(std::vector<TeamRun> runs) {
  std::sort(runs.begin(), runs.end(), [](const TeamRun& a, const TeamRun& b) {
    return a.avg_test_acc() > b.avg_test_acc();
  });
  std::ostringstream os;
  os << "team | test accuracy | And gates | levels | overfit\n";
  os << "-----+---------------+-----------+--------+--------\n";
  os.setf(std::ios::fixed);
  for (const auto& run : runs) {
    os.precision(2);
    os << "  " << run.team << (run.team < 10 ? " " : "") << " |         "
       << 100.0 * run.avg_test_acc() << " |   " << run.avg_ands() << " |  "
       << run.avg_levels() << " |   " << 100.0 * run.overfit() << "\n";
  }
  return os.str();
}

}  // namespace lsml::portfolio
