// End-to-end integration: benchmark generation -> PLA files -> learning ->
// AIG export, exercising the full contest data path.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>

#include "aig/aig_io.hpp"
#include "learn/dt.hpp"
#include "learn/matching.hpp"
#include "oracle/suite.hpp"
#include "pla/pla.hpp"
#include "portfolio/contest.hpp"
#include "portfolio/team.hpp"
#include "suite/runner.hpp"

namespace lsml {
namespace {

/// The in-memory contest: the one driver with cache and artifacts off.
std::vector<portfolio::TeamRun> run_in_memory(
    const std::vector<portfolio::ContestEntry>& entries,
    const std::vector<oracle::Benchmark>& benchmarks, std::uint64_t seed) {
  suite::RunnerOptions options;
  options.cache_dir.clear();
  options.write_artifacts = false;
  options.seed = seed;
  options.num_threads = 1;
  return suite::run_contest_on(entries, benchmarks, options).runs;
}

/// A depth-capped decision tree entered under its own name.
learn::LearnerFactory dt_factory(const std::string& name, int max_depth) {
  return learn::LearnerFactory(name, [name, max_depth] {
    learn::DtOptions dt;
    dt.max_depth = max_depth;
    return std::make_unique<learn::DtLearner>(dt, name);
  });
}

TEST(Integration, ContestDataPathThroughPlaFiles) {
  // Generate a benchmark, write train/valid as PLA (as the contest did),
  // read them back, learn, and verify the exported AIGER file.
  oracle::SuiteOptions options;
  options.rows_per_split = 300;
  const oracle::Benchmark bench = oracle::make_benchmark(32, options);

  const std::string dir = ::testing::TempDir();
  pla::write_pla_file(pla::Pla::from_dataset(bench.train),
                      dir + "/ex32_train.pla");
  pla::write_pla_file(pla::Pla::from_dataset(bench.valid),
                      dir + "/ex32_valid.pla");

  const data::Dataset train =
      pla::read_pla_file(dir + "/ex32_train.pla").to_dataset();
  const data::Dataset valid =
      pla::read_pla_file(dir + "/ex32_valid.pla").to_dataset();
  ASSERT_EQ(train.num_rows(), bench.train.num_rows());

  learn::DtOptions dt;
  dt.max_depth = 8;
  learn::DtLearner learner(dt, "dt8");
  core::Rng rng(1);
  const learn::TrainedModel model = learner.fit(train, valid, rng);
  EXPECT_GT(model.valid_acc, 0.75);

  const std::string aag_path = dir + "/ex32.aag";
  aig::write_aag_file(model.circuit, aag_path);
  const aig::Aig loaded = aig::read_aag_file(aag_path);
  EXPECT_NEAR(learn::circuit_accuracy(loaded, bench.test),
              learn::circuit_accuracy(model.circuit, bench.test), 1e-12);
}

TEST(Integration, MatchingSolvesArithmeticCategoriesExactly) {
  oracle::SuiteOptions options;
  options.rows_per_split = 400;
  // ex30 (comparator) and ex74 (parity) must be exactly solvable.
  for (const int id : {30, 74}) {
    const oracle::Benchmark bench = oracle::make_benchmark(id, options);
    const auto match = learn::match_standard_function(bench.train, {});
    ASSERT_TRUE(match.has_value()) << "ex" << id;
    EXPECT_GT(learn::circuit_accuracy(match->circuit, bench.test), 0.99)
        << "ex" << id;
  }
}

TEST(Integration, MiniContestProducesSensibleLeaderboard) {
  oracle::SuiteOptions suite_options;
  suite_options.rows_per_split = 200;
  std::vector<oracle::Benchmark> suite;
  for (const int id : {30, 75, 60}) {
    suite.push_back(oracle::make_benchmark(id, suite_options));
  }
  portfolio::TeamOptions team_options;
  team_options.scale = core::Scale::kSmoke;

  const std::vector<portfolio::TeamRun> runs = run_in_memory(
      portfolio::contest_entries({10, 7}, team_options), suite, 7);
  for (const auto& run : runs) {
    EXPECT_GT(run.avg_test_acc(), 0.55);
    for (const auto& r : run.results) {
      EXPECT_LE(r.num_ands, 5000u) << "contest size limit";
    }
  }
  const auto best = portfolio::max_accuracy_per_benchmark(runs);
  ASSERT_EQ(best.size(), 3u);
  EXPECT_GT(best[1], 0.9) << "the symmetric benchmark is matchable";
  const auto rates = portfolio::win_rates(runs);
  int total_best = 0;
  for (const auto& r : rates) {
    total_best += r.best;
  }
  EXPECT_GE(total_best, 3) << "every benchmark has at least one winner";
}

TEST(Integration, VirtualBestParetoShapesLikeFig2) {
  // With a mix of tiny and large models, the Pareto curve must be
  // non-decreasing in accuracy as the budget grows.
  oracle::SuiteOptions options;
  options.rows_per_split = 200;
  std::vector<oracle::Benchmark> suite;
  suite.push_back(oracle::make_benchmark(31, options));
  suite.push_back(oracle::make_benchmark(76, options));

  const std::vector<portfolio::TeamRun> runs = run_in_memory(
      {{1, dt_factory("dt3", 3)}, {2, dt_factory("dt12", 12)}}, suite, 3);

  const auto pareto = portfolio::virtual_best_pareto(
      runs, {10.0, 100.0, 1000.0, 5000.0});
  for (std::size_t i = 1; i < pareto.size(); ++i) {
    EXPECT_GE(pareto[i].avg_test_acc + 1e-12, pareto[i - 1].avg_test_acc);
  }
}

}  // namespace
}  // namespace lsml
