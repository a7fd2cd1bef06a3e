// Optimization passes: functional equivalence (the non-negotiable), size
// never grows through the `fast` preset, and balance reduces depth of chains.

#include <gtest/gtest.h>

#include "aig/aig_build.hpp"
#include "aig/aig_opt.hpp"
#include "aig/aig_random.hpp"
#include "core/rng.hpp"
#include "synth/pass_manager.hpp"

namespace lsml::aig {
namespace {

bool equivalent_by_simulation(const Aig& a, const Aig& b, std::size_t rows,
                              core::Rng& rng) {
  std::vector<core::BitVec> cols(a.num_pis(), core::BitVec(rows));
  std::vector<const core::BitVec*> ptrs;
  for (auto& c : cols) {
    c.randomize(rng);
    ptrs.push_back(&c);
  }
  const auto sa = a.simulate(ptrs);
  const auto sb = b.simulate(ptrs);
  return sa[0].count_equal(sb[0]) == rows;
}

/// Uncapped `fast` preset: what every learner's circuit goes through,
/// minus the budget's approximation.
Aig optimize_fast(const Aig& in) {
  synth::SynthOptions options;
  options.node_budget = 0;
  return synth::PassManager(options)
      .run(in, synth::Script::preset("fast"))
      .circuit;
}

TEST(Balance, ReducesChainDepth) {
  Aig g(8);
  // Deliberately skewed AND chain: depth 7.
  Lit acc = g.pi(0);
  for (std::uint32_t i = 1; i < 8; ++i) {
    acc = g.and2(acc, g.pi(i));
  }
  g.add_output(acc);
  EXPECT_EQ(g.num_levels(), 7u);
  const Aig balanced = balance(g);
  EXPECT_EQ(balanced.num_levels(), 3u);
  core::Rng rng(1);
  EXPECT_TRUE(equivalent_by_simulation(g, balanced, 256, rng));
}

class OptEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OptEquivalence, BalancePreservesFunction) {
  core::Rng rng(GetParam());
  ConeOptions options;
  options.num_inputs = 10;
  options.num_ands = 150;
  options.flavor = GetParam() % 2 ? ConeFlavor::kXorRich : ConeFlavor::kRandom;
  const Aig g = random_cone(options, rng);
  const Aig b = balance(g);
  core::Rng check(GetParam() * 7);
  EXPECT_TRUE(equivalent_by_simulation(g, b, 1024, check));
}

TEST_P(OptEquivalence, RewritePreservesFunction) {
  core::Rng rng(GetParam() * 13 + 1);
  ConeOptions options;
  options.num_inputs = 9;
  options.num_ands = 120;
  const Aig g = random_cone(options, rng);
  const Aig r = rewrite(g);
  core::Rng check(GetParam() * 31);
  EXPECT_TRUE(equivalent_by_simulation(g, r, 512, check))
      << "(exhaustive check below will localize)";
  // Exhaustive for 9 inputs.
  for (int m = 0; m < (1 << 9); ++m) {
    std::vector<std::uint8_t> row(9);
    for (int i = 0; i < 9; ++i) {
      row[static_cast<std::size_t>(i)] = (m >> i) & 1;
    }
    ASSERT_EQ(g.eval_row(row)[0], r.eval_row(row)[0]) << "minterm " << m;
  }
}

TEST_P(OptEquivalence, OptimizeNeverGrowsAndPreserves) {
  core::Rng rng(GetParam() * 101 + 7);
  ConeOptions options;
  options.num_inputs = 12;
  options.num_ands = 250;
  const Aig g = random_cone(options, rng);
  const Aig opt = optimize_fast(g);
  EXPECT_LE(opt.num_ands(), g.cleanup().num_ands());
  core::Rng check(GetParam());
  EXPECT_TRUE(equivalent_by_simulation(g, opt, 2048, check));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptEquivalence, ::testing::Range(1, 13));

TEST(Rewrite, ShrinksRedundantStructure) {
  Aig g(4);
  // f = (a&b&c) | (a&b&!c): collapses to a&b.
  const Lit ab = g.and2(g.pi(0), g.pi(1));
  const Lit t1 = g.and2(ab, g.pi(2));
  const Lit t2 = g.and2(ab, lit_not(g.pi(2)));
  g.add_output(g.or2(t1, t2));
  const Aig opt = optimize_fast(g);
  EXPECT_LE(opt.num_ands(), 1u);
  core::Rng rng(5);
  EXPECT_TRUE(equivalent_by_simulation(g, opt, 256, rng));
}

TEST(Optimize, MuxTreeOfConstantsCollapses) {
  // DT-style mux cascade whose leaves are mostly equal should shrink.
  Aig g(4);
  Lit leaf1 = kLitTrue;
  Lit leaf0 = kLitFalse;
  const Lit m0 = g.mux(g.pi(0), leaf1, leaf0);
  const Lit m1 = g.mux(g.pi(1), m0, m0);  // redundant select
  g.add_output(m1);
  const Aig opt = optimize_fast(g);
  EXPECT_LE(opt.num_ands(), g.cleanup().num_ands());
  core::Rng rng(8);
  EXPECT_TRUE(equivalent_by_simulation(g, opt, 64, rng));
}

TEST(RandomCone, MeetsBalanceWindowMostOfTheTime) {
  core::Rng rng(77);
  ConeOptions options;
  options.num_inputs = 24;
  options.num_ands = 240;
  const Aig g = random_cone(options, rng);
  core::Rng probe(78);
  const double onset = onset_fraction(g, 4096, probe);
  EXPECT_GT(onset, 0.2);
  EXPECT_LT(onset, 0.8);
  EXPECT_GT(g.num_ands(), 50u);
}

}  // namespace
}  // namespace lsml::aig
