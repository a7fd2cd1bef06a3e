// Cross-module property tests.
//
// These pin down the invariants the reproduction leans on everywhere:
//  * every learner's synthesized AIG computes exactly its native prediction,
//  * optimization passes preserve functionality on structured circuits,
//  * ESPRESSO covers are consistent with the care set by construction,
//  * matching-produced circuits equal their oracle on unseen data,
//  * benchmark generation is deterministic and split-disjoint across ids.

#include <gtest/gtest.h>

#include <unordered_set>

#include "aig/aig_build.hpp"
#include "aig/aig_opt.hpp"
#include "oracle/logic_oracles.hpp"
#include "learn/boosting.hpp"
#include "learn/dt.hpp"
#include "learn/forest.hpp"
#include "learn/lutnet.hpp"
#include "learn/rules.hpp"
#include "oracle/suite.hpp"
#include "sop/espresso.hpp"
#include "sop/sop_to_aig.hpp"
#include "synth/pass_manager.hpp"

namespace lsml {
namespace {

data::Dataset random_labelled(std::size_t inputs, std::size_t rows, int seed) {
  core::Rng rng(seed);
  data::Dataset ds(inputs, rows);
  for (std::size_t c = 0; c < inputs; ++c) {
    ds.column(c).randomize(rng);
  }
  // Structured-but-noisy labels: two conjunctions plus 5% flips.
  for (std::size_t r = 0; r < rows; ++r) {
    bool y = (ds.input(r, 0) && ds.input(r, 1)) ||
             (ds.input(r, 2) && !ds.input(r, 3));
    if (rng.flip(0.05)) {
      y = !y;
    }
    ds.set_label(r, y);
  }
  return ds;
}

/// Uncapped `fast` preset: the learners' default optimization without the
/// budget's approximation, so it must preserve the function exactly.
aig::Aig optimize_fast(const aig::Aig& in) {
  synth::SynthOptions options;
  options.node_budget = 0;
  return synth::PassManager(options)
      .run(in, synth::Script::preset("fast"))
      .circuit;
}

class LearnerAigEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(LearnerAigEquivalence, DtCircuitEqualsNativePrediction) {
  const auto ds = random_labelled(9, 400, GetParam());
  core::Rng rng(GetParam() * 3 + 1);
  learn::DtOptions options;
  options.min_samples_leaf = 1 + GetParam() % 4;
  const auto tree = learn::DecisionTree::fit(ds, options, rng);
  const auto sim = tree.to_aig(9).simulate(ds.column_ptrs());
  EXPECT_EQ(sim[0], tree.predict(ds));
}

TEST_P(LearnerAigEquivalence, OptimizedDtCircuitStaysEquivalent) {
  const auto ds = random_labelled(9, 400, GetParam() + 100);
  core::Rng rng(GetParam());
  const auto tree = learn::DecisionTree::fit(ds, {}, rng);
  const aig::Aig raw = tree.to_aig(9);
  const aig::Aig opt = optimize_fast(raw);
  const auto a = raw.simulate(ds.column_ptrs());
  const auto b = opt.simulate(ds.column_ptrs());
  EXPECT_EQ(a[0], b[0]) << "optimization must never change the function";
}

TEST_P(LearnerAigEquivalence, ForestCircuitEqualsVote) {
  const auto ds = random_labelled(8, 300, GetParam() + 200);
  core::Rng rng(GetParam() * 7);
  learn::ForestOptions options;
  options.num_trees = 3 + 2 * (GetParam() % 3);
  options.tree.max_depth = 5;
  const auto forest = learn::RandomForest::fit(ds, options, rng);
  const auto sim = forest.to_aig(8).simulate(ds.column_ptrs());
  EXPECT_EQ(sim[0], forest.predict(ds));
}

TEST_P(LearnerAigEquivalence, BoostedCircuitEqualsQuantizedVote) {
  const auto ds = random_labelled(8, 300, GetParam() + 300);
  core::Rng rng(GetParam() * 11);
  learn::BoostOptions options;
  options.num_trees = 10 + GetParam();
  options.max_depth = 3;
  const auto model = learn::GradientBoosted::fit(ds, options, rng);
  const auto sim = model.to_aig(8).simulate(ds.column_ptrs());
  EXPECT_EQ(sim[0], model.predict_quantized(ds));
}

TEST_P(LearnerAigEquivalence, LutNetCircuitEqualsForwardPass) {
  const auto ds = random_labelled(10, 300, GetParam() + 400);
  core::Rng rng(GetParam() * 13);
  learn::LutNetOptions options;
  options.num_layers = 1 + GetParam() % 3;
  options.luts_per_layer = 16;
  options.lut_inputs = 2 + GetParam() % 5;
  const auto net = learn::LutNetwork::fit(ds, options, rng);
  const auto sim = net.to_aig(10).simulate(ds.column_ptrs());
  EXPECT_EQ(sim[0], net.predict(ds));
}

TEST_P(LearnerAigEquivalence, RuleListCircuitEqualsFirstMatchSemantics) {
  const auto ds = random_labelled(8, 300, GetParam() + 500);
  core::Rng rng(GetParam() * 17);
  learn::RuleListOptions options;
  options.max_rules = 4 + static_cast<std::size_t>(GetParam());
  const auto list = learn::RuleList::fit(ds, options, rng);
  const auto sim = list.to_aig(8).simulate(ds.column_ptrs());
  EXPECT_EQ(sim[0], list.predict(ds));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerAigEquivalence, ::testing::Range(1, 9));

class EspressoConsistency : public ::testing::TestWithParam<int> {};

TEST_P(EspressoConsistency, CoverReproducesEveryTrainingLabel) {
  // Distinct rows only: duplicated rows with contradictory (noisy) labels
  // make a consistent cover impossible by definition.
  auto ds = random_labelled(10 + GetParam(), 250, GetParam());
  {
    std::unordered_set<std::uint64_t> seen;
    std::vector<std::size_t> keep;
    for (std::size_t r = 0; r < ds.num_rows(); ++r) {
      if (seen.insert(ds.row_hash(r)).second) {
        keep.push_back(r);
      }
    }
    ds = ds.select_rows(keep);
  }
  core::Rng rng(GetParam());
  const auto cover = sop::espresso(ds, {}, rng);
  EXPECT_EQ(data::accuracy(sop::cover_predict(cover, ds), ds.labels()), 1.0);
  // And the AIG build agrees with the cover.
  const auto sim =
      sop::cover_to_aig(cover, ds.num_inputs()).simulate(ds.column_ptrs());
  EXPECT_EQ(sim[0], sop::cover_predict(cover, ds));
}

INSTANTIATE_TEST_SUITE_P(Widths, EspressoConsistency, ::testing::Range(0, 8));

class ArithmeticOptimize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ArithmeticOptimize, AdderCircuitSurvivesOptimize) {
  const std::size_t k = GetParam();
  aig::Aig g(static_cast<std::uint32_t>(2 * k));
  std::vector<aig::Lit> a;
  std::vector<aig::Lit> b;
  for (std::uint32_t i = 0; i < k; ++i) {
    a.push_back(g.pi(i));
    b.push_back(g.pi(static_cast<std::uint32_t>(k + i)));
  }
  const auto sum = aig::ripple_adder(g, a, b);
  g.add_output(sum[k]);      // carry out
  g.add_output(sum[k - 1]);  // 2nd MSB
  const aig::Aig opt = optimize_fast(g);
  EXPECT_LE(opt.num_ands(), g.cleanup().num_ands());
  core::Rng rng(k);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> row(2 * k);
    std::uint64_t va = 0;
    std::uint64_t vb = 0;
    for (std::size_t i = 0; i < k; ++i) {
      row[i] = rng.flip(0.5);
      row[k + i] = rng.flip(0.5);
      va |= static_cast<std::uint64_t>(row[i]) << i;
      vb |= static_cast<std::uint64_t>(row[k + i]) << i;
    }
    const auto out = opt.eval_row(row);
    const std::uint64_t sum_val = va + vb;
    EXPECT_EQ(out[0], ((sum_val >> k) & 1) == 1);
    EXPECT_EQ(out[1], ((sum_val >> (k - 1)) & 1) == 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ArithmeticOptimize,
                         ::testing::Values(4u, 8u, 16u, 24u));

class SuiteDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(SuiteDeterminism, RegenerationIsBitIdentical) {
  oracle::SuiteOptions options;
  options.rows_per_split = 120;
  const auto a = oracle::make_benchmark(GetParam(), options);
  const auto b = oracle::make_benchmark(GetParam(), options);
  ASSERT_EQ(a.num_inputs, b.num_inputs);
  EXPECT_EQ(a.train.labels(), b.train.labels());
  EXPECT_EQ(a.valid.labels(), b.valid.labels());
  EXPECT_EQ(a.test.labels(), b.test.labels());
  for (std::size_t c = 0; c < a.num_inputs; c += 7) {
    EXPECT_EQ(a.train.column(c), b.train.column(c));
  }
}

TEST_P(SuiteDeterminism, SplitsShareNoRows) {
  oracle::SuiteOptions options;
  options.rows_per_split = 120;
  const auto bench = oracle::make_benchmark(GetParam(), options);
  std::unordered_set<std::uint64_t> seen;
  for (const auto* ds : {&bench.train, &bench.valid, &bench.test}) {
    for (std::size_t r = 0; r < ds->num_rows(); ++r) {
      EXPECT_TRUE(seen.insert(ds->row_hash(r)).second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AcrossCategories, SuiteDeterminism,
                         ::testing::Values(0, 11, 22, 33, 44, 55, 66, 73, 74,
                                           77, 83, 95));

TEST(SymmetricBuilderProperty, MatchesOracleForAllPaperSignatures) {
  const char* signatures[5] = {
      "00000000111111111", "11111100000111111", "00011110001111000",
      "00001110101110000", "00000011111000000"};
  for (const char* sig : signatures) {
    const oracle::SymmetricOracle oracle_fn(16, sig);
    aig::Aig g(16);
    std::vector<aig::Lit> lits;
    std::vector<bool> bits;
    for (std::uint32_t i = 0; i < 16; ++i) {
      lits.push_back(g.pi(i));
    }
    for (const char* c = sig; *c != '\0'; ++c) {
      bits.push_back(*c == '1');
    }
    g.add_output(aig::symmetric_function(g, lits, bits));
    core::Rng rng(1);
    for (int trial = 0; trial < 300; ++trial) {
      core::BitVec row(16);
      row.randomize(rng);
      std::vector<std::uint8_t> bytes(16);
      for (std::size_t i = 0; i < 16; ++i) {
        bytes[i] = row.get(i);
      }
      ASSERT_EQ(g.eval_row(bytes)[0], oracle_fn.eval(row)) << sig;
    }
  }
}

TEST(BalanceProperty, NeverIncreasesDepthOnConeSweeps) {
  for (int seed = 1; seed <= 10; ++seed) {
    core::Rng rng(seed);
    aig::ConeOptions options;
    options.num_inputs = 12;
    options.num_ands = 200;
    options.max_tries = 3;
    const aig::Aig g = aig::random_cone(options, rng);
    const aig::Aig b = aig::balance(g);
    EXPECT_LE(b.num_levels(), g.num_levels()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lsml
