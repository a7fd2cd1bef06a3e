// Contest tests: the in-memory driver (cache and artifacts off), its
// golden pin, and the analytics (aggregates, Pareto, win rates, leaderboard).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/bits.hpp"
#include "learn/factory.hpp"
#include "portfolio/contest.hpp"
#include "portfolio/team.hpp"
#include "suite/runner.hpp"

namespace lsml::portfolio {
namespace {

portfolio::BenchmarkResult make_result(int id, std::string bench,
                                       std::string method, double train_acc,
                                       double valid_acc, double test_acc,
                                       std::uint32_t num_ands,
                                       std::uint32_t num_levels) {
  BenchmarkResult r;
  r.benchmark_id = id;
  r.benchmark = std::move(bench);
  r.method = std::move(method);
  r.train_acc = train_acc;
  r.valid_acc = valid_acc;
  r.test_acc = test_acc;
  r.num_ands = num_ands;
  r.num_levels = num_levels;
  return r;
}

std::vector<oracle::Benchmark> tiny_suite() {
  oracle::SuiteOptions options;
  options.rows_per_split = 200;
  std::vector<oracle::Benchmark> suite;
  suite.push_back(oracle::make_benchmark(30, options));  // comparator
  suite.push_back(oracle::make_benchmark(75, options));  // symmetric
  return suite;
}

/// The in-memory contest: the one driver with cache and artifacts off.
std::vector<TeamRun> run_in_memory(const std::vector<ContestEntry>& entries,
                                   const std::vector<oracle::Benchmark>& suite,
                                   std::uint64_t seed, int threads) {
  suite::RunnerOptions options;
  options.cache_dir.clear();
  options.write_artifacts = false;
  options.seed = seed;
  options.num_threads = threads;
  return suite::run_contest_on(entries, suite, options).runs;
}

/// A registry learner filed under its own entry key, so one learner can
/// enter the same contest twice.
learn::LearnerFactory renamed(const std::string& key, const char* learner) {
  const learn::LearnerFactory inner =
      learn::LearnerFactory::from_registry(learner);
  return learn::LearnerFactory(key, [inner] { return inner.make(); });
}

/// fnv1a over every field an artifact row is made of: benchmark, method,
/// the three accuracies' bits, size and depth.
std::uint64_t results_digest(const std::vector<TeamRun>& runs) {
  std::string blob;
  const auto put = [&blob](const auto& v) {
    blob.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const auto& run : runs) {
    for (const auto& r : run.results) {
      blob += r.benchmark;
      blob += '\0';
      blob += r.method;
      blob += '\0';
      put(r.train_acc);
      put(r.valid_acc);
      put(r.test_acc);
      put(r.num_ands);
      put(r.num_levels);
    }
  }
  return core::fnv1a(blob.data(), blob.size());
}

TEST(Contest, RunProducesPerBenchmarkResults) {
  const auto suite = tiny_suite();
  const auto runs = run_in_memory(
      {{42, learn::LearnerFactory::from_registry("dt8")}}, suite, 1, 1);
  ASSERT_EQ(runs.size(), 1u);
  const TeamRun& run = runs.front();
  EXPECT_EQ(run.team, 42);
  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_EQ(run.results[0].benchmark, "ex30");
  EXPECT_GT(run.results[0].test_acc, 0.6);
  EXPECT_GT(run.avg_test_acc(), 0.5);
  EXPECT_GE(run.avg_ands(), 0.0);
}

TEST(Contest, SerialAndParallelRunsAreBitIdentical) {
  const auto suite = tiny_suite();
  const std::vector<ContestEntry> entries = {
      {42, learn::LearnerFactory::from_registry("dt8")}};
  const TeamRun serial = run_in_memory(entries, suite, 1, 1).front();
  const TeamRun threaded = run_in_memory(entries, suite, 1, 8).front();

  ASSERT_EQ(serial.results.size(), threaded.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    const auto& s = serial.results[i];
    const auto& p = threaded.results[i];
    EXPECT_EQ(s.benchmark_id, p.benchmark_id);
    EXPECT_EQ(s.method, p.method);
    EXPECT_EQ(s.train_acc, p.train_acc);
    EXPECT_EQ(s.valid_acc, p.valid_acc);
    EXPECT_EQ(s.test_acc, p.test_acc);
    EXPECT_EQ(s.num_ands, p.num_ands);
    EXPECT_EQ(s.num_levels, p.num_levels);
  }
}

TEST(Contest, EveryTaskMatchesItsStandaloneEvaluation) {
  const auto suite = tiny_suite();
  const auto factory = learn::LearnerFactory::from_registry("dt8");
  const auto runs = run_in_memory(
      {{1, renamed("dt8-a", "dt8")}, {2, renamed("dt8-b", "dt8")}}, suite, 7,
      4);
  ASSERT_EQ(runs.size(), 2u);

  for (const auto& run : runs) {
    ASSERT_EQ(run.results.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
      auto learner = factory.make();
      core::Rng rng = contest_rng(7, run.team, suite[i].id);
      const BenchmarkResult alone =
          evaluate_on(*learner, suite[i], rng,
                      suite::RunnerOptions{}.opt.options.node_budget);
      EXPECT_EQ(alone.test_acc, run.results[i].test_acc);
      EXPECT_EQ(alone.num_ands, run.results[i].num_ands);
    }
  }
  // Both teams cover the same suite in the same order...
  EXPECT_EQ(runs[0].results[0].benchmark, runs[1].results[0].benchmark);
  // ...but draw different RNG streams: split() must key on the team number.
  core::Rng root(7);
  EXPECT_NE(root.split(1, suite[0].id).next(),
            root.split(2, suite[0].id).next());
}

TEST(Contest, DuplicateEntryKeysAreRejectedEvenInMemory) {
  const auto suite = tiny_suite();
  const auto factory = learn::LearnerFactory::from_registry("dt8");
  EXPECT_THROW(run_in_memory({{1, factory}, {2, factory}}, suite, 7, 1),
               std::invalid_argument);
}

// Pins the results of the historical in-memory driver: the digest was
// recorded from it before it was folded into suite::run_contest_on, so any
// later change to what a contest task computes shows up here.
TEST(Contest, GoldenDigestHoldsAtOneAndFourThreads) {
  constexpr std::uint64_t kGolden = 0x09d1f64b225e01feULL;
  const auto suite = tiny_suite();
  const std::vector<ContestEntry> entries = {
      {1, learn::LearnerFactory::from_registry("dt")},
      {2, learn::LearnerFactory::from_registry("dt8")}};
  for (const int threads : {1, 4}) {
    EXPECT_EQ(results_digest(run_in_memory(entries, suite, 7, threads)),
              kGolden)
        << threads << " thread(s)";
  }
}

// Pins the teams whose tasks run the neural-network (teams 3, 4 and 8) and
// CGP (team 9) learners, ISOP on every pruned neuron and subspace table, and
// approximation of the networks' circuits. Recorded before the word-span
// ISOP and the allocation-free MLP and CGP kernels replaced their
// predecessors, which these kernels must reproduce bit for bit.
TEST(Contest, GoldenDigestHoldsForNeuralAndCgpTeams) {
  constexpr std::uint64_t kGolden = 0x14e969f0348eb622ULL;
  const auto suite = tiny_suite();
  TeamOptions options;
  options.scale = core::Scale::kSmoke;
  std::vector<ContestEntry> entries;
  for (const int team : {3, 4, 8, 9}) {
    entries.push_back({team, team_factory(team, options)});
  }
  for (const int threads : {1, 4}) {
    EXPECT_EQ(results_digest(run_in_memory(entries, suite, 7, threads)),
              kGolden)
        << threads << " thread(s)";
  }
}

TEST(Contest, OverfitIsValidMinusTest) {
  TeamRun run;
  run.results.push_back(
      make_result(0, "a", "m", 1.0, 0.9, 0.8, 10, 3));
  run.results.push_back(
      make_result(1, "b", "m", 1.0, 0.7, 0.7, 20, 4));
  EXPECT_NEAR(run.overfit(), 0.05, 1e-12);
  EXPECT_NEAR(run.avg_ands(), 15.0, 1e-12);
}

TEST(Contest, ParetoIsMonotoneInBudget) {
  // Two synthetic teams: cheap/weak and expensive/strong.
  TeamRun cheap;
  cheap.team = 1;
  TeamRun strong;
  strong.team = 2;
  for (int b = 0; b < 5; ++b) {
    cheap.results.push_back(
        make_result(b, "ex", "m", 0, 0, 0.7, 50, 5));
    strong.results.push_back(
        make_result(b, "ex", "m", 0, 0, 0.95, 2000, 9));
  }
  const auto points =
      virtual_best_pareto({cheap, strong}, {100.0, 5000.0});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_NEAR(points[0].avg_test_acc, 0.7, 1e-12);
  EXPECT_NEAR(points[1].avg_test_acc, 0.95, 1e-12);
  EXPECT_LE(points[0].avg_test_acc, points[1].avg_test_acc)
      << "a larger budget can only help the virtual best";
}

TEST(Contest, MaxAccuracyPerBenchmark) {
  TeamRun a;
  a.results.push_back(make_result(0, "x", "m", 0, 0, 0.6, 1, 1));
  a.results.push_back(make_result(1, "y", "m", 0, 0, 0.9, 1, 1));
  TeamRun b;
  b.results.push_back(make_result(0, "x", "m", 0, 0, 0.8, 1, 1));
  b.results.push_back(make_result(1, "y", "m", 0, 0, 0.5, 1, 1));
  const auto best = max_accuracy_per_benchmark({a, b});
  EXPECT_EQ(best, (std::vector<double>{0.8, 0.9}));
}

TEST(Contest, WinRatesCountBestAndNearBest) {
  TeamRun a;
  a.team = 1;
  a.results.push_back(make_result(0, "x", "m", 0, 0, 0.90, 1, 1));
  TeamRun b;
  b.team = 2;
  b.results.push_back(make_result(0, "x", "m", 0, 0, 0.895, 1, 1));
  TeamRun c;
  c.team = 3;
  c.results.push_back(make_result(0, "x", "m", 0, 0, 0.5, 1, 1));
  const auto rates = win_rates({a, b, c});
  EXPECT_EQ(rates[0].best, 1);
  EXPECT_EQ(rates[1].best, 0);
  EXPECT_EQ(rates[1].within_top1pct, 1);
  EXPECT_EQ(rates[2].within_top1pct, 0);
}

TEST(Contest, LeaderboardSortsByAccuracy) {
  TeamRun a;
  a.team = 1;
  a.results.push_back(make_result(0, "x", "m", 0, 0.8, 0.6, 10, 2));
  TeamRun b;
  b.team = 2;
  b.results.push_back(make_result(0, "x", "m", 0, 0.9, 0.9, 30, 3));
  const std::string table = format_leaderboard({a, b});
  const auto pos2 = table.find("  2 ");
  const auto pos1 = table.find("  1 ");
  ASSERT_NE(pos1, std::string::npos);
  ASSERT_NE(pos2, std::string::npos);
  EXPECT_LT(pos2, pos1) << "team 2 has higher accuracy, should be first";
}

}  // namespace
}  // namespace lsml::portfolio
