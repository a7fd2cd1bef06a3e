// synth:: pass-manager tests: script parsing, preset properties over
// random AIGs (equivalence, budget, determinism, monotonicity), the
// process-wide memo, and the one-pipeline-per-task contract.

#include <gtest/gtest.h>

#include <latch>
#include <sstream>
#include <thread>
#include <vector>

#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "learn/factory.hpp"
#include "oracle/suite.hpp"
#include "portfolio/contest.hpp"
#include "portfolio/team.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script.hpp"
#include "synth/script_search.hpp"

namespace lsml::synth {
namespace {

// ---------------------------------------------------------------- scripts

TEST(Script, ParsesAndRoundTrips) {
  const Script s = Script::parse("b;rw;b;rw -k 6");
  ASSERT_EQ(s.passes.size(), 4u);
  EXPECT_EQ(s.passes[0].kind, PassKind::kBalance);
  EXPECT_EQ(s.passes[1].kind, PassKind::kRewrite);
  EXPECT_EQ(s.passes[1].effective_cut_size(), 4);
  EXPECT_EQ(s.passes[3].cut_size, 6);
  EXPECT_EQ(s.str(), "b; rw; b; rw -k 6");
  EXPECT_EQ(Script::parse(s.str()).str(), s.str()) << "canonical round-trip";
  // Long spellings and loose whitespace are accepted.
  const Script long_form =
      Script::parse(" balance ; rewrite -k 5 ; cleanup; approx -n 100 ");
  EXPECT_EQ(long_form.str(), "b; rw -k 5; c; approx -n 100");
}

TEST(Script, RejectsMalformedInput) {
  EXPECT_THROW(Script::parse(""), std::invalid_argument);
  EXPECT_THROW(Script::parse("  ;  "), std::invalid_argument);
  EXPECT_THROW(Script::parse("b; frobnicate"), std::invalid_argument);
  EXPECT_THROW(Script::parse("rw -k"), std::invalid_argument);
  EXPECT_THROW(Script::parse("rw -k 9"), std::invalid_argument);
  EXPECT_THROW(Script::parse("rw -k -3"), std::invalid_argument);
  EXPECT_THROW(Script::parse("b -k 4"), std::invalid_argument);
  EXPECT_THROW(Script::parse("approx -k 4"), std::invalid_argument);
  EXPECT_THROW(Script::parse("rw -n 100"), std::invalid_argument);
  EXPECT_THROW(Script::preset("resyn3"), std::invalid_argument);
}

TEST(Script, PresetsResolveAndFingerprintsDiffer) {
  for (const std::string& name : Script::preset_names()) {
    const Script s = Script::preset(name);
    EXPECT_EQ(s.name, name);
    EXPECT_FALSE(s.passes.empty());
    EXPECT_EQ(Script::named_or_parse(name).str(), s.str());
  }
  EXPECT_NE(Script::preset("fast").fingerprint(),
            Script::preset("resyn2").fingerprint());
  EXPECT_NE(Script::preset("resyn2").fingerprint(),
            Script::preset("compress2max").fingerprint());
  // A parsed script spelled like a preset fingerprints like it too.
  EXPECT_EQ(Script::parse("c; b; rw").fingerprint(),
            Script::preset("fast").fingerprint());
  EXPECT_EQ(Script::parse("approx -n 50").str(), "approx -n 50");
}

// ------------------------------------------------- preset property tests

bool equivalent_exhaustive(const aig::Aig& a, const aig::Aig& b) {
  // Packed simulation over every minterm of up to 16 PIs.
  const std::size_t rows = std::size_t{1} << a.num_pis();
  std::vector<core::BitVec> cols(a.num_pis(), core::BitVec(rows));
  std::vector<const core::BitVec*> ptrs;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      if ((r >> c) & 1) {
        cols[c].set(r, true);
      }
    }
    ptrs.push_back(&cols[c]);
  }
  const auto sa = a.simulate(ptrs);
  const auto sb = b.simulate(ptrs);
  return sa[0] == sb[0];
}

class PresetProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PresetProperty, PreservesFunctionNeverRegressesAndIsDeterministic) {
  const auto& [preset, seed] = GetParam();
  core::Rng rng(static_cast<std::uint64_t>(seed) * 97 + 11);
  aig::ConeOptions cone;
  cone.num_inputs = 8;
  cone.num_ands = 140;
  cone.flavor = seed % 2 ? aig::ConeFlavor::kXorRich
                         : aig::ConeFlavor::kRandom;
  const aig::Aig g = aig::random_cone(cone, rng);

  SynthOptions options;  // default budget far above these cones
  const PassManager manager(options);
  const SynthResult result = manager.run(g, Script::preset(preset));

  // Functionality-preserving scripts must be exhaustively equivalent.
  EXPECT_TRUE(equivalent_exhaustive(g, result.circuit))
      << preset << " changed the function (seed " << seed << ")";
  // Monotonicity: never worse than plain cleanup.
  EXPECT_LE(result.circuit.num_ands(), g.cleanup().num_ands());
  // Budget: trivially satisfied here, but the contract is unconditional.
  EXPECT_LE(result.circuit.num_ands(), options.node_budget);
  // The trace observed every pass of at least one round.
  EXPECT_GE(result.trace.size(), Script::preset(preset).passes.size());
  EXPECT_EQ(result.ands_in(), g.num_ands());

  // Determinism: an identical second run serializes identically.
  const SynthResult again = manager.run(g, Script::preset(preset));
  std::ostringstream first, second;
  aig::write_aag(result.circuit, first);
  aig::write_aag(again.circuit, second);
  EXPECT_EQ(first.str(), second.str());
  ASSERT_EQ(result.trace.size(), again.trace.size());
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_EQ(result.trace[i].pass, again.trace[i].pass);
    EXPECT_EQ(result.trace[i].ands_after, again.trace[i].ands_after);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PresetProperty,
    ::testing::Combine(::testing::Values("fast", "resyn2", "resyn2fs",
                                         "compress2max"),
                       ::testing::Range(1, 5)));

TEST(PassManager, BudgetIsEnforcedByApproximation) {
  core::Rng rng(12);
  aig::ConeOptions cone;
  cone.num_inputs = 10;
  cone.num_ands = 300;
  const aig::Aig g = aig::random_cone(cone, rng);

  SynthOptions options;
  options.node_budget = 50;
  const PassManager manager(options);
  const SynthResult result = manager.run(g, Script::preset("fast"));
  EXPECT_LE(result.circuit.num_ands(), 50u);
  bool saw_approx = false;
  for (const PassStats& s : result.trace) {
    saw_approx |= s.pass.rfind("approx", 0) == 0;
  }
  EXPECT_TRUE(saw_approx) << "the cap must come from an approx pass";

  // Approximation draws from options.approx_seed when no RNG is passed,
  // so even the function-changing path is reproducible.
  const SynthResult again = manager.run(g, Script::preset("fast"));
  std::ostringstream first, second;
  aig::write_aag(result.circuit, first);
  aig::write_aag(again.circuit, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(PassManager, ExplicitApproxPassRespectsItsOwnBudget) {
  core::Rng rng(5);
  aig::ConeOptions cone;
  cone.num_inputs = 9;
  cone.num_ands = 200;
  const aig::Aig g = aig::random_cone(cone, rng);
  SynthOptions options;
  options.node_budget = 0;  // uncapped overall...
  const PassManager manager(options);
  const SynthResult result = manager.run(g, Script::parse("b; approx -n 40"));
  EXPECT_LE(result.circuit.num_ands(), 40u)
      << "...but the script's own approx budget still applies";
}

// ---------------------------------------------------------- fit_to_budget

TEST(FitToBudget, FitsEveryBudgetAndNamesTheChange) {
  for (int seed = 1; seed <= 6; ++seed) {
    core::Rng gen(static_cast<std::uint64_t>(seed) * 131 + 7);
    aig::ConeOptions cone;
    cone.num_inputs = 9;
    cone.num_ands = 260;
    cone.flavor = seed % 2 ? aig::ConeFlavor::kXorRich
                           : aig::ConeFlavor::kRandom;
    const aig::Aig g = aig::random_cone(cone, gen);
    ASSERT_GT(g.num_ands(), 50u);
    for (const std::uint32_t budget : {0u, 1u, 50u, g.num_ands(), 1u << 20}) {
      core::Rng rng(static_cast<std::uint64_t>(seed));
      const BudgetFit fit = fit_to_budget(g, budget, rng);
      EXPECT_LE(fit.circuit.num_ands(), budget)
          << "seed " << seed << " budget " << budget;
      if (budget >= g.num_ands()) {
        EXPECT_EQ(fit.change, BudgetChange::kNone);
        EXPECT_EQ(fit.circuit.content_hash(), g.content_hash());
        EXPECT_TRUE(fit.trace.empty());
        continue;
      }
      EXPECT_EQ(fit.change, budget == 0 ? BudgetChange::kConstant
                                        : BudgetChange::kApprox)
          << "seed " << seed << " budget " << budget;
      // The trace reconciles with the input and the returned circuit.
      ASSERT_FALSE(fit.trace.empty());
      EXPECT_EQ(fit.trace.front().ands_before, g.num_ands());
      EXPECT_EQ(fit.trace.back().ands_after, fit.circuit.num_ands());
      EXPECT_EQ(fit.trace.back().pass,
                budget == 0 ? "const" : "approx -n " + std::to_string(budget));
      EXPECT_EQ(fit.circuit.num_pis(), g.num_pis());
      EXPECT_EQ(fit.circuit.num_outputs(), g.num_outputs());

      core::Rng again_rng(static_cast<std::uint64_t>(seed));
      EXPECT_EQ(fit_to_budget(g, budget, again_rng).circuit.content_hash(),
                fit.circuit.content_hash())
          << "the fit is a function of (circuit, budget, rng)";
    }
  }
}

TEST(FitToBudget, DowngradeTable) {
  using V = VerifyStatus;
  const V all[] = {V::kNotRequested, V::kExact, V::kUndecided,
                   V::kSkippedApprox, V::kFailed};
  for (const V status : all) {
    EXPECT_EQ(downgrade(status, BudgetChange::kNone), status);
    const V changed = status == V::kExact || status == V::kUndecided
                          ? V::kSkippedApprox
                          : status;
    EXPECT_EQ(downgrade(status, BudgetChange::kApprox), changed)
        << to_string(status);
    EXPECT_EQ(downgrade(status, BudgetChange::kConstant), changed)
        << to_string(status);
  }
}

// ----------------------------------------------------------- memo + tasks

TEST(PassManager, MemoDeduplicatesStructurallyIdenticalCircuits) {
  PassManager::clear_memo();
  PassManager::reset_counters();
  // Two independently built but structurally identical circuits.
  const auto build = [] {
    aig::Aig g(4);
    g.add_output(g.and2(g.xor2(g.pi(0), g.pi(1)), g.or2(g.pi(2), g.pi(3))));
    return g;
  };
  const aig::Aig a = build();
  const aig::Aig b = build();
  ASSERT_EQ(a.content_hash(), b.content_hash());

  const PassManager manager;
  const SynthResult ra = manager.run_cached(a, Script::preset("fast"));
  const SynthResult rb = manager.run_cached(b, Script::preset("fast"));
  EXPECT_EQ(PassManager::runs_executed(), 1u)
      << "the second circuit must be served from the memo";
  EXPECT_EQ(PassManager::memo_hits(), 1u);
  EXPECT_EQ(ra.circuit.num_ands(), rb.circuit.num_ands());

  // A different script is a different memo row.
  (void)manager.run_cached(a, Script::preset("resyn2"));
  EXPECT_EQ(PassManager::runs_executed(), 2u);
}

/// Eight threads behind a latch call run_cached on one key at once and
/// return the AIGER text each got.
std::vector<std::string> run_cached_concurrently(const PassManager& manager,
                                                 const aig::Aig& g,
                                                 const Script& script) {
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      std::ostringstream os;
      aig::write_aag(manager.run_cached(g, script).circuit, os);
      results[t] = os.str();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return results;
}

TEST(PassManager, ConcurrentMissesOnOneKeyRunOnce) {
  // Concurrent misses on one key: one thread runs the script, the other
  // seven wait for its result and count as memo hits — also when the memo
  // is full and the result is not kept.
  core::Rng rng(77);
  aig::ConeOptions cone;
  cone.num_inputs = 14;
  cone.num_ands = 1500;
  const aig::Aig g = aig::random_cone(cone, rng);
  const Script script = Script::preset("resyn2fs");
  const PassManager manager;

  for (const bool full : {false, true}) {
    PassManager::clear_memo();
    if (full) {
      // 8192 (the memo cap) cheap runs that differ only in their seed.
      aig::Aig tiny(2);
      tiny.add_output(tiny.and2(tiny.pi(0), tiny.pi(1)));
      for (std::uint64_t seed = 0; seed < 8192; ++seed) {
        SynthOptions options;
        options.approx_seed = seed;
        (void)PassManager(options).run_cached(tiny, Script::parse("c"));
      }
    }
    const std::uint64_t runs0 = PassManager::runs_executed();
    const std::uint64_t hits0 = PassManager::memo_hits();
    const std::vector<std::string> results =
        run_cached_concurrently(manager, g, script);
    EXPECT_EQ(PassManager::runs_executed(), runs0 + 1) << "full " << full;
    EXPECT_EQ(PassManager::memo_hits(), hits0 + results.size() - 1)
        << "full " << full;
    for (std::size_t t = 1; t < results.size(); ++t) {
      EXPECT_EQ(results[t], results[0]) << "thread " << t << " full " << full;
    }
    // A full memo kept nothing, so the next caller runs again.
    (void)manager.run_cached(g, script);
    EXPECT_EQ(PassManager::runs_executed(), runs0 + (full ? 2 : 1))
        << "full " << full;
  }
  PassManager::clear_memo();
}

TEST(PassManager, EachContestTaskOptimizesExactlyOnce) {
  oracle::SuiteOptions suite_options;
  suite_options.rows_per_split = 120;
  const oracle::Benchmark bench = oracle::make_benchmark(30, suite_options);

  PassManager::clear_memo();
  PassManager::reset_counters();
  const std::uint32_t budget = default_opt_request().options.node_budget;
  const auto learner = learn::LearnerFactory::from_registry("dt").make();
  core::Rng rng = portfolio::contest_rng(2020, 1, bench.id);
  const portfolio::BenchmarkResult result =
      portfolio::evaluate_on(*learner, bench, rng, budget);
  EXPECT_EQ(PassManager::runs_executed(), 1u)
      << "one task, one pipeline invocation (got "
      << PassManager::runs_executed() << ")";
  EXPECT_FALSE(result.synth_trace.empty());
  EXPECT_LE(result.num_ands, budget);
  EXPECT_EQ(result.synth_ands_in(), result.synth_trace.front().ands_before);
  PassManager::clear_memo();
}

namespace {

/// A rogue learner that hands back an over-budget raw circuit without
/// going through finish_model, to exercise evaluate_on's hard guarantee.
class RogueLearner final : public learn::Learner {
 public:
  [[nodiscard]] std::string name() const override { return "rogue"; }
  learn::TrainedModel fit(const data::Dataset& train,
                          const data::Dataset& valid,
                          core::Rng& rng) override {
    (void)train;
    (void)valid;
    aig::ConeOptions cone;
    cone.num_inputs = 10;
    cone.num_ands = 400;
    learn::TrainedModel m;
    m.circuit = aig::random_cone(cone, rng);
    m.method = "rogue";
    return m;
  }
};

}  // namespace

TEST(PassManager, EvaluateOnEnforcesTheArtifactBudget) {
  constexpr std::uint32_t kBudget = 100;

  oracle::SuiteOptions suite_options;
  suite_options.rows_per_split = 64;
  const oracle::Benchmark bench = oracle::make_benchmark(30, suite_options);
  RogueLearner rogue;
  core::Rng rng(9);
  aig::Aig circuit{0};
  const portfolio::BenchmarkResult result = portfolio::evaluate_on(
      rogue, bench, rng, kBudget, &circuit);
  EXPECT_LE(result.num_ands, kBudget);
  EXPECT_LE(circuit.num_ands(), kBudget);
  EXPECT_NE(result.method.find("+budget"), std::string::npos);
  EXPECT_FALSE(result.synth_trace.empty());
}


// ------------------------------------------------------ budget pins
// Content hashes and traces of the three over-budget paths, captured
// before they were routed through one budget enforcer: that refactor
// must not move a byte or an RNG draw.

std::string trace_text(const std::vector<PassStats>& trace) {
  std::string out;
  for (const PassStats& s : trace) {
    out += s.pass + ":" + std::to_string(s.ands_before) + ">" +
           std::to_string(s.ands_after) + ";";
  }
  return out;
}

TEST(BudgetPins, EndOfScriptGuaranteeOnAContestSizedCircuit) {
  // A chain whose every gate feeds the next one, so cleanup keeps it all.
  core::Rng rng(2024);
  aig::Aig g(14);
  std::vector<aig::Lit> lits;
  for (std::uint32_t i = 0; i < 14; ++i) {
    lits.push_back(g.pi(i));
  }
  aig::Lit prev = g.pi(0);
  for (int i = 0; i < 3000; ++i) {
    const aig::Lit other =
        lits[rng.next() % lits.size()] ^ static_cast<aig::Lit>(rng.next() & 1);
    prev = rng.next() % 2 ? g.xor2(prev, other) : g.and2(prev, other);
    lits.push_back(prev);
  }
  g.add_output(prev);
  ASSERT_GT(g.cleanup().num_ands(), 5000u);

  SynthOptions options;  // the contest's 5000-AND cap
  options.verify_equivalence = true;
  const SynthResult result = PassManager(options).run(g, Script::parse("c; b"));
  EXPECT_LE(result.circuit.num_ands(), 5000u);
  EXPECT_EQ(result.verify, VerifyStatus::kSkippedApprox);
  EXPECT_EQ(result.circuit.content_hash(), 6189427317057318029ULL);
  EXPECT_EQ(trace_text(result.trace),
            "c:5911>5911;b:5911>5911;approx -n 5000:5911>4858;");
}

TEST(BudgetPins, SelectBestWithinBudgetApproximatesTheBestCandidate) {
  core::Rng rng(77);
  data::Dataset train(10, 128);
  for (std::size_t c = 0; c < 10; ++c) {
    train.column(c).randomize(rng);
  }
  train.labels().randomize(rng);
  std::vector<learn::TrainedModel> candidates;
  for (int i = 0; i < 2; ++i) {
    aig::ConeOptions cone;
    cone.num_inputs = 10;
    cone.num_ands = 300;
    learn::TrainedModel m;
    m.circuit = aig::random_cone(cone, rng);
    m.method = "cand" + std::to_string(i);
    m.valid_acc = 0.5 + 0.1 * i;
    candidates.push_back(std::move(m));
  }
  core::Rng task_rng(5);
  const learn::TrainedModel picked = portfolio::select_best_within_budget(
      std::move(candidates), train, train, 60, task_rng);
  EXPECT_EQ(picked.method, "cand1+approx");
  EXPECT_LE(picked.circuit.num_ands(), 60u);
  EXPECT_EQ(picked.circuit.content_hash(), 15746096979474594205ULL);
  EXPECT_EQ(trace_text(picked.synth_trace),
            "approx -n 60:172>57;c:57>57;b:57>57;rw:57>43;c:43>43;b:43>42;"
            "rw:42>34;c:34>34;b:34>34;rw:34>31;");
  EXPECT_EQ(task_rng.next(), 13005106688899498383ULL) << "RNG draws moved";
}

TEST(BudgetPins, EvaluateOnBudgetPath) {
  constexpr std::uint32_t kBudget = 100;

  oracle::SuiteOptions suite_options;
  suite_options.rows_per_split = 64;
  const oracle::Benchmark bench = oracle::make_benchmark(30, suite_options);
  RogueLearner rogue;
  core::Rng rng(9);
  aig::Aig circuit{0};
  const portfolio::BenchmarkResult result = portfolio::evaluate_on(
      rogue, bench, rng, kBudget, &circuit);
  EXPECT_EQ(result.method, "rogue+budget");
  EXPECT_EQ(circuit.content_hash(), 9467774237825089791ULL);
  EXPECT_EQ(trace_text(result.synth_trace), "approx -n 100:180>91;");
  EXPECT_EQ(rng.next(), 12858569494970712675ULL) << "RNG draws moved";
}

}  // namespace
}  // namespace lsml::synth
