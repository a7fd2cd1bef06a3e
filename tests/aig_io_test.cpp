// ASCII AIGER round-trip tests.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "core/rng.hpp"

namespace lsml::aig {
namespace {

TEST(AigIo, WritesHeaderAndBody) {
  Aig g(2);
  g.add_output(g.and2(g.pi(0), lit_not(g.pi(1))));
  std::ostringstream os;
  write_aag(g, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("aag 3 2 0 1 1"), std::string::npos);
  EXPECT_NE(text.find("6 2 5"), std::string::npos);
}

TEST(AigIo, RoundTripPreservesFunction) {
  core::Rng rng(3);
  ConeOptions options;
  options.num_inputs = 8;
  options.num_ands = 60;
  const Aig original = random_cone(options, rng);

  std::stringstream ss;
  write_aag(original, ss);
  const Aig parsed = read_aag(ss);
  ASSERT_EQ(parsed.num_pis(), original.num_pis());
  ASSERT_EQ(parsed.num_outputs(), original.num_outputs());
  for (int trial = 0; trial < 256; ++trial) {
    std::vector<std::uint8_t> row(8);
    for (auto& bit : row) {
      bit = rng.flip(0.5) ? 1 : 0;
    }
    EXPECT_EQ(original.eval_row(row)[0], parsed.eval_row(row)[0]);
  }
}

TEST(AigIo, EmptyAigRoundTrip) {
  const Aig g(0);  // only the constant node: no PIs, ANDs, or outputs
  std::stringstream ss;
  write_aag(g, ss);
  EXPECT_NE(ss.str().find("aag 0 0 0 0 0"), std::string::npos);
  const Aig parsed = read_aag(ss);
  EXPECT_EQ(parsed.num_pis(), 0u);
  EXPECT_EQ(parsed.num_ands(), 0u);
  EXPECT_EQ(parsed.num_outputs(), 0u);
  std::ostringstream again;
  write_aag(parsed, again);
  EXPECT_EQ(again.str(), ss.str());
}

TEST(AigIo, MovedFromAigWritesParseableModule) {
  Aig g(2);
  g.add_output(g.and2(g.pi(0), g.pi(1)));
  const Aig stolen = std::move(g);
  EXPECT_EQ(stolen.num_pis(), 2u);
  // g now has zero nodes; the writer must not underflow its counts.
  std::stringstream ss;
  write_aag(g, ss);  // NOLINT(bugprone-use-after-move): deliberate
  EXPECT_NE(ss.str().find("aag 0 "), std::string::npos);
  EXPECT_NO_THROW(read_aag(ss));
}

TEST(AigIo, PiOnlyRoundTrip) {
  Aig g(1);
  g.add_output(g.pi(0));
  std::stringstream ss;
  write_aag(g, ss);
  const Aig parsed = read_aag(ss);
  ASSERT_EQ(parsed.num_pis(), 1u);
  EXPECT_TRUE(parsed.eval_row({1})[0]);
  EXPECT_FALSE(parsed.eval_row({0})[0]);
}

TEST(AigIo, RejectsBadHeader) {
  std::istringstream is("agg 1 1 0 1 0\n2\n2\n");
  EXPECT_THROW(read_aag(is), std::runtime_error);
}

TEST(AigIo, RejectsLatches) {
  std::istringstream is("aag 1 1 1 0 0\n2\n");
  EXPECT_THROW(read_aag(is), std::runtime_error);
}

// Malformed bodies must surface as std::runtime_error, never as an
// out-of-bounds read (these cases run under ASan in the sanitizer jobs).
void expect_rejected(const std::string& text) {
  std::istringstream is(text);
  EXPECT_THROW(read_aag(is), std::runtime_error) << text;
}

TEST(AigIo, RejectsOutputVariableBeyondM) {
  expect_rejected("aag 1 1 0 1 0\n2\n99999\n");
}

TEST(AigIo, RejectsInputVariableBeyondM) {
  expect_rejected("aag 1 1 0 1 0\n8\n2\n");
}

TEST(AigIo, RejectsAndVariableBeyondM) {
  expect_rejected("aag 2 1 0 1 1\n2\n4\n8 2 2\n");
}

TEST(AigIo, RejectsFaninVariableBeyondM) {
  expect_rejected("aag 3 2 0 1 1\n2\n4\n6\n6 8 4\n");
}

TEST(AigIo, RejectsMBeyondTheLiteralRange) {
  expect_rejected("aag 4294967295 0 0 0 4294967295\n2 0 0\n");
}

TEST(AigIo, RejectsInputVariableZero) {
  expect_rejected("aag 1 1 0 1 0\n0\n2\n");
}

TEST(AigIo, RejectsDuplicateInput) {
  expect_rejected("aag 2 2 0 1 0\n2\n2\n2\n");
}

TEST(AigIo, RejectsAndRedefiningAnInput) {
  expect_rejected("aag 2 1 0 1 1\n2\n2\n2 2 2\n");
}

TEST(AigIo, RejectsAndRedefiningAnEarlierAnd) {
  expect_rejected("aag 3 1 0 1 2\n2\n4\n4 2 2\n4 3 3\n");
}

TEST(AigIo, RejectsFaninDefinedLater) {
  expect_rejected("aag 3 1 0 1 2\n2\n6\n4 6 2\n6 2 3\n");
}

TEST(AigIo, AcceptsAndsInAnyDefinitionOrder) {
  // var 3 = x & !x is defined first, then var 2 uses it: legal.
  std::istringstream is("aag 3 1 0 1 2\n2\n5\n6 2 3\n4 6 2\n");
  const Aig parsed = read_aag(is);
  EXPECT_TRUE(parsed.eval_row({0})[0]);
  EXPECT_TRUE(parsed.eval_row({1})[0]);
}

TEST(AigIo, ConstantOutputs) {
  Aig g(1);
  g.add_output(kLitTrue);
  g.add_output(kLitFalse);
  std::stringstream ss;
  write_aag(g, ss);
  const Aig parsed = read_aag(ss);
  const auto out = parsed.eval_row({0});
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
}

TEST(AigIo, FileRoundTrip) {
  Aig g(2);
  g.add_output(g.or2(g.pi(0), g.pi(1)));
  const std::string path = ::testing::TempDir() + "/lsml_io_test.aag";
  write_aag_file(g, path);
  const Aig parsed = read_aag_file(path);
  EXPECT_EQ(parsed.num_pis(), 2u);
  EXPECT_TRUE(parsed.eval_row({1, 0})[0]);
  EXPECT_FALSE(parsed.eval_row({0, 0})[0]);
}

}  // namespace
}  // namespace lsml::aig
