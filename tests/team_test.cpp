// Team portfolio tests: construction, budget selection, and a couple of
// cheap end-to-end fits on tiny benchmarks.

#include <gtest/gtest.h>

#include "aig/aig_random.hpp"
#include "oracle/suite.hpp"
#include "portfolio/contest.hpp"
#include "portfolio/team.hpp"

namespace lsml::portfolio {
namespace {

oracle::Benchmark tiny_benchmark(int id, std::size_t rows = 250) {
  oracle::SuiteOptions options;
  options.rows_per_split = rows;
  return oracle::make_benchmark(id, options);
}

TEST(Teams, AllTenConstruct) {
  TeamOptions options;
  options.scale = core::Scale::kSmoke;
  for (int t : all_team_numbers()) {
    const auto team = make_team(t, options);
    ASSERT_NE(team, nullptr);
    EXPECT_EQ(team->name(), "team" + std::to_string(t));
  }
  EXPECT_THROW(make_team(11, options), std::invalid_argument);
}

TEST(Teams, FactoryBuildsIndependentInstances) {
  TeamOptions options;
  options.scale = core::Scale::kSmoke;
  const learn::LearnerFactory factory = team_factory(10, options);
  EXPECT_EQ(factory.name(), "team10");
  const auto a = factory.make();
  const auto b = factory.make();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get()) << "each make() must own a fresh instance";
  EXPECT_EQ(a->name(), "team10");
  // Registry publication is explicit, never a team_factory side effect.
  EXPECT_THROW(learn::LearnerFactory::from_registry("team10"),
               std::out_of_range);
  register_team_factories(options);
  const auto from_registry = learn::LearnerFactory::from_registry("team10");
  EXPECT_EQ(from_registry.make()->name(), "team10");
  EXPECT_THROW(team_factory(11, options), std::invalid_argument);
}

TEST(Teams, ContestEntriesCoverRequestedTeams) {
  TeamOptions options;
  options.scale = core::Scale::kSmoke;
  const auto entries = contest_entries({2, 7}, options);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].team, 2);
  EXPECT_EQ(entries[1].team, 7);
  EXPECT_EQ(entries[1].factory.make()->name(), "team7");
}

TEST(Teams, TechniqueMatrixMatchesFig1Counts) {
  const auto matrix = technique_matrix();
  ASSERT_EQ(matrix.size(), 10u);
  int dt_users = 0;
  int nn_users = 0;
  for (const auto& row : matrix) {
    dt_users += row.dt_rf ? 1 : 0;
    nn_users += row.nn ? 1 : 0;
  }
  EXPECT_EQ(dt_users, 8) << "DT/RF was the most popular technique";
  EXPECT_GE(nn_users, 4);
  EXPECT_TRUE(matrix[8].cgp) << "team 9 is the CGP team";
  EXPECT_FALSE(matrix[9].sop) << "team 10 used trees only";
}

TEST(SelectBest, PrefersAccurateWithinBudget) {
  // Labels are the parity of the three inputs: no optimization pass can
  // reduce an exact model to zero gates, so the budget bites for real.
  data::Dataset train(3, 16);
  data::Dataset valid(3, 16);
  core::Rng rng(1);
  for (std::size_t r = 0; r < 16; ++r) {
    const std::size_t m = r & 7;
    for (std::size_t c = 0; c < 3; ++c) {
      train.set_input(r, c, (m >> c) & 1);
      valid.set_input(r, c, (m >> c) & 1);
    }
    const bool parity = ((m >> 0) ^ (m >> 1) ^ (m >> 2)) & 1;
    train.set_label(r, parity);
    valid.set_label(r, parity);
  }
  // Candidate A: perfect (exact parity) but over any zero-gate budget.
  aig::Aig big(3);
  big.add_output(big.xor2(big.xor2(big.pi(0), big.pi(1)), big.pi(2)));
  // Candidate B: a bare PI — 50% accurate, zero gates.
  aig::Aig small(3);
  small.add_output(small.pi(0));

  std::vector<learn::TrainedModel> candidates;
  candidates.push_back(learn::finish_model(std::move(big), "big", train, valid));
  candidates.push_back(
      learn::finish_model(std::move(small), "small", train, valid));
  EXPECT_GT(candidates[0].valid_acc, candidates[1].valid_acc);
  EXPECT_GT(candidates[0].circuit.num_ands(), 0u);
  const std::uint32_t budget = 0;  // only the PI-only model fits
  const auto chosen = select_best_within_budget(std::move(candidates), train,
                                                valid, budget, rng);
  EXPECT_EQ(chosen.method, "small")
      << "within-budget must beat more-accurate-over-budget";
}

TEST(SelectBest, ApproximatesWhenNothingFits) {
  core::Rng rng(3);
  aig::ConeOptions cone;
  cone.num_inputs = 10;
  cone.num_ands = 300;
  const aig::Aig big = aig::random_cone(cone, rng);
  data::Dataset train(10, 64);
  data::Dataset valid(10, 64);
  core::Rng fill(4);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 10; ++c) {
      train.set_input(r, c, fill.flip(0.5));
      valid.set_input(r, c, fill.flip(0.5));
    }
  }
  std::vector<learn::TrainedModel> candidates;
  candidates.push_back(learn::finish_model(big, "only", train, valid));
  const auto chosen =
      select_best_within_budget(std::move(candidates), train, valid, 50, rng);
  EXPECT_LE(chosen.circuit.num_ands(), 50u);
  EXPECT_NE(chosen.method.find("approx"), std::string::npos);
}

TEST(SelectBest, ZeroBudgetFallbackIsTheFitsMajorityConstant) {
  // Nothing fits zero ANDs: the candidate goes through fit_to_budget, whose
  // constant is each output's majority under random simulation of the
  // candidate (not the training labels' majority).
  aig::Aig big(3);
  big.add_output(big.or2(big.or2(big.pi(0), big.pi(1)), big.pi(2)));
  data::Dataset train(3, 64);
  learn::TrainedModel candidate;
  candidate.circuit = big;
  candidate.method = "or3";
  candidate.synth_trace.push_back({"c", 2, 2, 2, 2, 0.0});

  core::Rng rng(8);
  const auto chosen = select_best_within_budget({candidate}, train, train,
                                                /*node_budget=*/0, rng);
  EXPECT_EQ(chosen.method, "or3+approx");
  ASSERT_EQ(chosen.circuit.num_ands(), 0u);
  EXPECT_EQ(chosen.circuit.output(0), aig::kLitTrue)
      << "OR3 is 1 on 7/8 of the inputs, whatever the (all-zero) labels say";
  ASSERT_GE(chosen.synth_trace.size(), 2u);
  EXPECT_EQ(chosen.synth_trace[0].pass, "c") << "the candidate's history";
  EXPECT_EQ(chosen.synth_trace[1].pass, "const");
}

TEST(Teams, Team10EndToEndOnComparator) {
  const auto bench = tiny_benchmark(30);  // 10-bit comparator
  TeamOptions options;
  options.scale = core::Scale::kSmoke;
  const auto team = make_team(10, options);
  core::Rng rng(5);
  const auto model = team->fit(bench.train, bench.valid, rng);
  EXPECT_GT(model.valid_acc, 0.80);
  EXPECT_LE(model.circuit.num_ands(), 5000u);
}

TEST(Teams, Team7MatchesSymmetricBenchmark) {
  const auto bench = tiny_benchmark(75);  // 16-input symmetric
  TeamOptions options;
  options.scale = core::Scale::kSmoke;
  const auto team = make_team(7, options);
  core::Rng rng(6);
  const auto model = team->fit(bench.train, bench.valid, rng);
  EXPECT_NE(model.method.find("match"), std::string::npos)
      << "symmetric functions should be caught by matching, got "
      << model.method;
  EXPECT_GT(model.valid_acc, 0.95);
}

TEST(Teams, Team2EndToEndOnCone) {
  const auto bench = tiny_benchmark(50, 200);  // smallest PicoJava-like cone
  TeamOptions options;
  options.scale = core::Scale::kSmoke;
  const auto team = make_team(2, options);
  core::Rng rng(7);
  const auto model = team->fit(bench.train, bench.valid, rng);
  EXPECT_GT(model.train_acc, 0.6);
  EXPECT_LE(model.circuit.num_ands(), 5000u);
}

}  // namespace
}  // namespace lsml::portfolio
