// Standard-function matching tests (Teams 1 & 7).

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "learn/matching.hpp"
#include "oracle/arith_oracles.hpp"
#include "oracle/logic_oracles.hpp"
#include "oracle/oracle.hpp"
#include "oracle/suite.hpp"

namespace lsml::learn {
namespace {

data::Dataset sample(const oracle::Oracle& f, std::size_t rows, int seed) {
  core::Rng rng(seed);
  return oracle::sample_dataset(f, rows, rng);
}

TEST(Matching, DetectsConstants) {
  data::Dataset ds(4, 50);
  for (std::size_t r = 0; r < 50; ++r) {
    ds.set_label(r, true);
  }
  const auto m = match_standard_function(ds, {});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->what, "const1");
}

TEST(Matching, DetectsSingleLiteral) {
  core::Rng rng(1);
  data::Dataset ds(6, 200);
  for (std::size_t r = 0; r < 200; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      ds.set_input(r, c, rng.flip(0.5));
    }
    ds.set_label(r, !ds.input(r, 3));
  }
  const auto m = match_standard_function(ds, {});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->what, "!x3");
  EXPECT_EQ(m->circuit.num_ands(), 0u);
}

TEST(Matching, DetectsPairwiseXor) {
  core::Rng rng(2);
  data::Dataset ds(8, 300);
  for (std::size_t r = 0; r < 300; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      ds.set_input(r, c, rng.flip(0.5));
    }
    ds.set_label(r, ds.input(r, 2) != ds.input(r, 6));
  }
  const auto m = match_standard_function(ds, {});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->what, "xor(x2,x6)");
}

TEST(Matching, DetectsParityAsSymmetric) {
  const oracle::ParityOracle parity(10);
  const auto ds = sample(parity, 400, 3);
  const auto m = match_standard_function(ds, {});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->what, "symmetric");
  // Verify the synthesized circuit on fresh data.
  const auto test = sample(parity, 300, 4);
  EXPECT_GT(circuit_accuracy(m->circuit, test), 0.99);
}

TEST(Matching, DetectsSymmetricSignature) {
  const oracle::SymmetricOracle sym(12, "0011100111000");
  const auto ds = sample(sym, 500, 5);
  const auto m = match_standard_function(ds, {});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->what, "symmetric");
  const auto test = sample(sym, 300, 6);
  EXPECT_GT(circuit_accuracy(m->circuit, test), 0.95)
      << "unseen popcount classes may default to majority";
}

TEST(Matching, DetectsAdderMsb) {
  const oracle::AdderBitOracle adder(8, 8);
  const auto ds = sample(adder, 400, 7);
  const auto m = match_standard_function(ds, {});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->what, "adder[k=8,bit=8]");
  const auto test = sample(adder, 300, 8);
  EXPECT_DOUBLE_EQ(circuit_accuracy(m->circuit, test), 1.0);
}

TEST(Matching, DetectsComparator) {
  const oracle::ComparatorOracle cmp(10);
  const auto ds = sample(cmp, 400, 9);
  const auto m = match_standard_function(ds, {});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->what, "comparator[a>b]");
  const auto test = sample(cmp, 300, 10);
  EXPECT_DOUBLE_EQ(circuit_accuracy(m->circuit, test), 1.0);
}

TEST(Matching, DetectsSmallMultiplierBit) {
  const oracle::MultiplierBitOracle mult(8, 7);
  const auto ds = sample(mult, 500, 11);
  const auto m = match_standard_function(ds, {});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->what, "multiplier[k=8,bit=7]");
}

TEST(Matching, DoesNotFalsePositiveOnRandomCone) {
  const auto cone =
      oracle::make_cone_oracle(14, 200, aig::ConeFlavor::kRandom, 55);
  const auto ds = sample(*cone, 500, 12);
  const auto m = match_standard_function(ds, {});
  EXPECT_FALSE(m.has_value())
      << "random logic must not be claimed as a standard function";
}

}  // namespace
}  // namespace lsml::learn
