// Truth table and ISOP tests, including the ISOP sandwich property
// on <= cover <= on|dc over randomized incompletely-specified functions.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.hpp"
#include "tt/isop.hpp"
#include "tt/truth_table.hpp"

namespace lsml::tt {
namespace {

// The TruthTable-allocating Minato-Morreale recursion isop() replaced: the
// oracle its cube lists must equal, cube for cube.
std::vector<SmallCube> reference_isop_rec(const TruthTable& on,
                                          const TruthTable& upper,
                                          int num_vars, int var,
                                          TruthTable* result) {
  if (on.is_const0()) {
    *result = TruthTable::constant(num_vars, false);
    return {};
  }
  if (upper.is_const1()) {
    *result = TruthTable::constant(num_vars, true);
    return {SmallCube{}};
  }
  int v = var - 1;
  while (v >= 0 && !on.depends_on(v) && !upper.depends_on(v)) {
    --v;
  }
  const TruthTable on0 = on.cofactor(v, false);
  const TruthTable on1 = on.cofactor(v, true);
  const TruthTable up0 = upper.cofactor(v, false);
  const TruthTable up1 = upper.cofactor(v, true);
  TruthTable res0;
  auto cover0 = reference_isop_rec(on0 & ~up1, up0, num_vars, v, &res0);
  TruthTable res1;
  auto cover1 = reference_isop_rec(on1 & ~up0, up1, num_vars, v, &res1);
  const TruthTable on_rest = (on0 & ~res0) | (on1 & ~res1);
  TruthTable res2;
  auto cover2 = reference_isop_rec(on_rest, up0 & up1, num_vars, v, &res2);
  const TruthTable tv = TruthTable::var(num_vars, v);
  *result = (res0 & ~tv) | (res1 & tv) | res2;
  std::vector<SmallCube> out;
  for (auto cube : cover0) {
    cube.neg |= 1u << v;
    out.push_back(cube);
  }
  for (auto cube : cover1) {
    cube.pos |= 1u << v;
    out.push_back(cube);
  }
  for (auto cube : cover2) {
    out.push_back(cube);
  }
  return out;
}

std::vector<SmallCube> reference_isop(const TruthTable& on,
                                      const TruthTable& dc) {
  TruthTable result;
  return reference_isop_rec(on, on | dc, on.num_vars(), on.num_vars(),
                            &result);
}

TruthTable random_tt(int vars, core::Rng& rng) {
  TruthTable t(vars);
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
    if (rng.flip(0.5)) {
      t.set(m, true);
    }
  }
  return t;
}

TEST(TruthTable, VarProjection) {
  for (int n = 1; n <= 8; ++n) {
    for (int v = 0; v < n; ++v) {
      const TruthTable t = TruthTable::var(n, v);
      for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
        EXPECT_EQ(t.get(m), ((m >> v) & 1) == 1);
      }
    }
  }
}

TEST(TruthTable, ConstantAndCounts) {
  const TruthTable zero = TruthTable::constant(5, false);
  const TruthTable one = TruthTable::constant(5, true);
  EXPECT_TRUE(zero.is_const0());
  EXPECT_TRUE(one.is_const1());
  EXPECT_EQ(one.count_ones(), 32u);
}

TEST(TruthTable, OperatorsMatchBitwiseSemantics) {
  core::Rng rng(11);
  const TruthTable a = random_tt(7, rng);
  const TruthTable b = random_tt(7, rng);
  const TruthTable t_and = a & b;
  const TruthTable t_or = a | b;
  const TruthTable t_xor = a ^ b;
  const TruthTable t_not = ~a;
  for (std::uint64_t m = 0; m < a.num_minterms(); ++m) {
    EXPECT_EQ(t_and.get(m), a.get(m) && b.get(m));
    EXPECT_EQ(t_or.get(m), a.get(m) || b.get(m));
    EXPECT_EQ(t_xor.get(m), a.get(m) != b.get(m));
    EXPECT_EQ(t_not.get(m), !a.get(m));
  }
}

TEST(TruthTable, CofactorsAndSupport) {
  // f = x0 & x2 over 3 vars.
  const TruthTable f =
      TruthTable::var(3, 0) & TruthTable::var(3, 2);
  EXPECT_TRUE(f.depends_on(0));
  EXPECT_FALSE(f.depends_on(1));
  EXPECT_TRUE(f.depends_on(2));
  EXPECT_TRUE(f.cofactor(0, false).is_const0());
  EXPECT_EQ(f.cofactor(0, true), TruthTable::var(3, 2));
}

TEST(TruthTable, CofactorHighVariables) {
  core::Rng rng(13);
  const TruthTable f = random_tt(9, rng);
  for (int v = 0; v < 9; ++v) {
    const TruthTable c0 = f.cofactor(v, false);
    const TruthTable c1 = f.cofactor(v, true);
    for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
      const std::uint64_t m0 = m & ~(1ULL << v);
      const std::uint64_t m1 = m | (1ULL << v);
      EXPECT_EQ(c0.get(m), f.get(m0));
      EXPECT_EQ(c1.get(m), f.get(m1));
    }
  }
}

TEST(SmallCube, TruthTableOfCube) {
  SmallCube c;
  c.pos = 0b001;  // x0
  c.neg = 0b100;  // !x2
  const TruthTable t = cube_to_tt(c, 3);
  for (std::uint64_t m = 0; m < 8; ++m) {
    EXPECT_EQ(t.get(m), ((m & 1) != 0) && ((m & 4) == 0));
  }
  EXPECT_EQ(c.num_literals(), 2);
}

TEST(Isop, ExactCoverOfCompletelySpecified) {
  core::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const int vars = 1 + static_cast<int>(rng.below(8));
    const TruthTable f = random_tt(vars, rng);
    const auto cover = isop(f);
    EXPECT_EQ(sop_to_tt(cover, vars), f);
  }
}

class IsopDontCare : public ::testing::TestWithParam<int> {};

TEST_P(IsopDontCare, SandwichProperty) {
  core::Rng rng(GetParam());
  const int vars = 2 + GetParam() % 7;
  const TruthTable on = random_tt(vars, rng);
  TruthTable dc = random_tt(vars, rng);
  dc = dc & ~on;  // disjoint dc for a cleaner check
  const auto cover = isop(on, dc);
  const TruthTable result = sop_to_tt(cover, vars);
  // on <= result <= on | dc
  EXPECT_TRUE((on & ~result).is_const0());
  EXPECT_TRUE((result & ~(on | dc)).is_const0());
}

TEST_P(IsopDontCare, DontCaresNeverIncreaseCubeCount) {
  core::Rng rng(GetParam() * 31 + 5);
  const int vars = 4 + GetParam() % 4;
  const TruthTable on = random_tt(vars, rng);
  TruthTable dc = random_tt(vars, rng);
  dc = dc & ~on;
  EXPECT_LE(isop(on, dc).size(), isop(on).size() * 2 + 2)
      << "don't-cares should usually help and must never blow up the cover";
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsopDontCare, ::testing::Range(1, 25));

/// Asserts isop(on, dc) equals the oracle's cover and lies between on and
/// on | dc; returns the number of cubes.
std::size_t expect_matches_reference(const TruthTable& on,
                                     const TruthTable& dc) {
  const std::vector<SmallCube> cover = isop(on, dc);
  EXPECT_EQ(cover, reference_isop(on, dc)) << on.num_vars() << " vars";
  const TruthTable result = sop_to_tt(cover, on.num_vars());
  EXPECT_TRUE((on & ~result).is_const0()) << on.num_vars() << " vars";
  EXPECT_TRUE((result & ~(on | dc)).is_const0()) << on.num_vars() << " vars";
  return cover.size();
}

/// The neuron tables of Mlp::to_aig: bias + sum of the weights of the set
/// inputs, thresholded at zero.
TruthTable threshold_tt(int vars, core::Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(vars));
  for (double& x : w) {
    x = rng.gaussian();
  }
  const double bias = rng.gaussian();
  TruthTable t(vars);
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
    double z = bias;
    for (int j = 0; j < vars; ++j) {
      if (m & (1ULL << j)) {
        z += w[static_cast<std::size_t>(j)];
      }
    }
    t.set(m, z >= 0.0);
  }
  return t;
}

/// An OR of `cubes` random cubes, each drawing 3 to 8 literals (a variable
/// drawn twice keeps its first literal).
TruthTable cube_sum_tt(int vars, int cubes, core::Rng& rng) {
  std::vector<SmallCube> cover;
  for (int c = 0; c < cubes; ++c) {
    SmallCube cube;
    const auto lits = 3 + rng.below(6);
    for (std::uint64_t l = 0; l < lits; ++l) {
      const std::uint32_t bit =
          1u << rng.below(static_cast<std::uint64_t>(vars));
      if ((cube.pos | cube.neg) & bit) {
        continue;
      }
      (rng.flip(0.5) ? cube.pos : cube.neg) |= bit;
    }
    cover.push_back(cube);
  }
  return sop_to_tt(cover, vars);
}

/// A random function of the lowest `support` of `vars` variables, so the
/// recursion has to skip every variable above them.
TruthTable low_support_tt(int vars, int support, core::Rng& rng) {
  const TruthTable small = random_tt(support, rng);
  TruthTable t(vars);
  for (std::uint64_t m = 0; m < t.num_minterms(); ++m) {
    t.set(m, small.get(m & (small.num_minterms() - 1)));
  }
  return t;
}

TEST(Isop, MatchesReferenceOnRandomFunctions) {
  core::Rng rng(101);
  for (int vars = 0; vars <= 12; ++vars) {
    const int trials = vars <= 8 ? 30 : 2;
    for (int trial = 0; trial < trials; ++trial) {
      const TruthTable on = random_tt(vars, rng);
      const TruthTable none = TruthTable::constant(vars, false);
      expect_matches_reference(on, none);
      expect_matches_reference(~on, none);
      // Overlapping, disjoint and wide don't-cares; dense and sparse onsets.
      expect_matches_reference(on, random_tt(vars, rng));
      const TruthTable sparse =
          on & random_tt(vars, rng) & random_tt(vars, rng);
      expect_matches_reference(sparse, random_tt(vars, rng) & ~on);
      expect_matches_reference(sparse,
                               random_tt(vars, rng) | random_tt(vars, rng));
    }
  }
}

TEST(Isop, MatchesReferenceOnWideCubeSums) {
  // Past 12 variables a random table's cover is too large for the oracle,
  // so onsets and don't-cares are sums of random cubes over every variable.
  core::Rng rng(109);
  for (int vars = 13; vars <= kMaxVars; ++vars) {
    for (int trial = 0; trial < 2; ++trial) {
      const TruthTable on = cube_sum_tt(vars, 12, rng);
      const TruthTable none = TruthTable::constant(vars, false);
      expect_matches_reference(on, none);
      expect_matches_reference(on, cube_sum_tt(vars, 12, rng));
      expect_matches_reference(on, cube_sum_tt(vars, 12, rng) & ~on);
    }
  }
}

TEST(Isop, MatchesReferenceOnThresholdFunctions) {
  // Up to the 14-input subspace tables of Team 4 (prune_max_fanin is 12).
  core::Rng rng(103);
  for (int vars = 0; vars <= 14; ++vars) {
    const int trials = vars <= 10 ? 12 : 1;
    for (int trial = 0; trial < trials; ++trial) {
      const TruthTable f = threshold_tt(vars, rng);
      const TruthTable none = TruthTable::constant(vars, false);
      expect_matches_reference(f, none);
      expect_matches_reference(~f, none);
    }
  }
}

TEST(Isop, MatchesReferenceOnConstants) {
  for (int vars = 0; vars <= kMaxVars; ++vars) {
    const TruthTable zero = TruthTable::constant(vars, false);
    const TruthTable one = TruthTable::constant(vars, true);
    EXPECT_EQ(expect_matches_reference(zero, zero), 0u);
    EXPECT_EQ(expect_matches_reference(one, zero), 1u);
    EXPECT_EQ(expect_matches_reference(zero, one), 0u);
  }
}

TEST(Isop, MatchesReferenceWhenTopVariablesAreIgnored) {
  core::Rng rng(107);
  for (int vars = 1; vars <= kMaxVars; ++vars) {
    for (int support = 0; support < std::min(vars, 9); ++support) {
      const TruthTable on = low_support_tt(vars, support, rng);
      const TruthTable none = TruthTable::constant(vars, false);
      expect_matches_reference(on, none);
      expect_matches_reference(~on, none);
      expect_matches_reference(on & low_support_tt(vars, support, rng),
                               low_support_tt(vars, support, rng));
      // Only the don't-care set reaches above the onset's support.
      expect_matches_reference(on, random_tt(vars, rng) & ~on);
    }
  }
}

TEST(Isop, GateCost) {
  EXPECT_EQ(sop_gate_cost({}), 0);
  SmallCube wide;
  wide.pos = 0b1111;
  EXPECT_EQ(sop_gate_cost({wide}), 3);  // 4 literals -> 3 AND2
  SmallCube single;
  single.pos = 0b1;
  EXPECT_EQ(sop_gate_cost({single, wide}), 4);  // 0 + 3 + 1 OR
}

}  // namespace
}  // namespace lsml::tt
