// PLA format reader/writer tests.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/rng.hpp"
#include "pla/pla.hpp"

namespace lsml::pla {
namespace {

TEST(Pla, ParsesContestStyleFile) {
  std::istringstream is(
      ".i 4\n"
      ".o 1\n"
      ".type fr\n"
      ".p 3\n"
      "0110 1\n"
      "1111 0\n"
      "0000 1\n"
      ".e\n");
  const Pla p = read_pla(is);
  EXPECT_EQ(p.num_inputs, 4u);
  ASSERT_EQ(p.cubes.size(), 3u);
  EXPECT_EQ(p.outputs[0], '1');
  EXPECT_EQ(p.outputs[1], '0');
  const auto ds = p.to_dataset();
  EXPECT_EQ(ds.num_rows(), 3u);
  EXPECT_TRUE(ds.input(0, 1));
  EXPECT_FALSE(ds.input(0, 0));
  EXPECT_TRUE(ds.label(2));
}

TEST(Pla, ParsesDontCares) {
  std::istringstream is(".i 3\n.p 1\n1-0 1\n.e\n");
  const Pla p = read_pla(is);
  ASSERT_EQ(p.cubes.size(), 1u);
  EXPECT_EQ(p.cubes[0].num_literals(), 2u);
  EXPECT_FALSE(p.cubes[0].mask.get(1));
  EXPECT_THROW(p.to_dataset(), std::runtime_error)
      << "don't-care rows cannot become dataset rows";
}

TEST(Pla, RoundTripThroughText) {
  core::Rng rng(5);
  data::Dataset ds(6, 40);
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      ds.set_input(r, c, rng.flip(0.5));
    }
    ds.set_label(r, rng.flip(0.5));
  }
  const Pla out = Pla::from_dataset(ds);
  std::stringstream ss;
  write_pla(out, ss);
  const Pla in = read_pla(ss);
  const data::Dataset back = in.to_dataset();
  ASSERT_EQ(back.num_rows(), ds.num_rows());
  ASSERT_EQ(back.num_inputs(), ds.num_inputs());
  for (std::size_t r = 0; r < 40; ++r) {
    EXPECT_EQ(back.label(r), ds.label(r));
    for (std::size_t c = 0; c < 6; ++c) {
      EXPECT_EQ(back.input(r, c), ds.input(r, c));
    }
  }
}

TEST(Pla, FromCoverWritesOnsetCubes) {
  sop::Cube c(3);
  c.mask.set(0, true);
  c.value.set(0, true);
  const Pla p = Pla::from_cover({c}, 3);
  std::ostringstream os;
  write_pla(p, os);
  EXPECT_NE(os.str().find("1-- 1"), std::string::npos);
}

TEST(Pla, AcceptsSingleOutputHeader) {
  std::istringstream is(".i 2\n.o 1\n01 1\n.e\n");
  EXPECT_EQ(read_pla(is).cubes.size(), 1u);
}

TEST(Pla, RejectsMultiOutputHeader) {
  std::istringstream is(".i 2\n.o 2\n01 10\n.e\n");
  EXPECT_THROW(read_pla(is), std::runtime_error)
      << "multi-output PLAs must be rejected, not silently truncated";
}

TEST(Pla, RejectsMultipleOutputColumns) {
  // No .o header, but the cube line itself carries two output bits.
  std::istringstream is(".i 2\n01 10\n.e\n");
  EXPECT_THROW(read_pla(is), std::runtime_error);
}

TEST(Pla, RejectsTrailingColumns) {
  std::istringstream is(".i 2\n01 1 1\n.e\n");
  EXPECT_THROW(read_pla(is), std::runtime_error);
}

TEST(Pla, RejectsBadOutputCharacter) {
  std::istringstream is(".i 2\n01 x\n.e\n");
  EXPECT_THROW(read_pla(is), std::runtime_error);
}

TEST(Pla, DontCareOutputParsesButCannotBecomeLabel) {
  std::istringstream is(".i 2\n.o 1\n01 -\n10 ~\n.e\n");
  const Pla p = read_pla(is);
  ASSERT_EQ(p.outputs.size(), 2u);
  EXPECT_EQ(p.outputs[0], '-');
  EXPECT_THROW(p.to_dataset(), std::runtime_error)
      << "don't-care outputs must not silently become label 0";
}

TEST(Pla, RoundTripProperty) {
  // write -> read -> to_dataset is the identity on contest-style datasets
  // of any shape.
  for (int seed = 0; seed < 8; ++seed) {
    core::Rng rng(seed);
    const std::size_t inputs = 1 + rng.below(24);
    const std::size_t rows = 1 + rng.below(120);
    data::Dataset ds(inputs, rows);
    for (std::size_t c = 0; c < inputs; ++c) {
      ds.column(c).randomize(rng);
    }
    ds.labels().randomize(rng);
    std::stringstream ss;
    write_pla(Pla::from_dataset(ds), ss);
    const data::Dataset back = read_pla(ss).to_dataset();
    ASSERT_EQ(back.num_inputs(), ds.num_inputs()) << "seed " << seed;
    ASSERT_EQ(back.num_rows(), ds.num_rows()) << "seed " << seed;
    EXPECT_EQ(back.labels(), ds.labels()) << "seed " << seed;
    for (std::size_t c = 0; c < inputs; ++c) {
      EXPECT_EQ(back.column(c), ds.column(c)) << "seed " << seed;
    }
    EXPECT_EQ(back.content_hash(), ds.content_hash()) << "seed " << seed;
  }
}

TEST(Pla, RejectsMalformedInput) {
  {
    std::istringstream is("10 1\n");  // cube before .i
    EXPECT_THROW(read_pla(is), std::runtime_error);
  }
  {
    std::istringstream is(".i 3\n10 1\n");  // wrong width
    EXPECT_THROW(read_pla(is), std::runtime_error);
  }
  {
    std::istringstream is(".i 2\n1x 1\n");  // bad character
    EXPECT_THROW(read_pla(is), std::runtime_error);
  }
  {
    std::istringstream is(".i 2\n.kw\n");  // unknown directive
    EXPECT_THROW(read_pla(is), std::runtime_error);
  }
}

TEST(Pla, RejectsInputCountAboveTheCapBeforeSizingAnything) {
  // Both headers used to reach Pla::to_dataset: the first built a
  // 100M-column Dataset, the second threw std::bad_alloc.
  for (const char* text : {".i 100000000\n.o 1\n.e\n",
                           ".i 4000000000\n.o 1\n.e\n"}) {
    std::istringstream is(text);
    try {
      (void)read_pla(is);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds the limit"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Pla, AcceptsInputCountAtTheCap) {
  std::istringstream is(".i " + std::to_string(kMaxInputs) + "\n.o 1\n.e\n");
  const Pla p = read_pla(is);
  EXPECT_EQ(p.num_inputs, kMaxInputs);
  EXPECT_TRUE(p.cubes.empty());
}

TEST(Pla, FileRoundTrip) {
  data::Dataset ds(3, 2);
  ds.set_input(0, 0, true);
  ds.set_label(0, true);
  const std::string path = ::testing::TempDir() + "/lsml_test.pla";
  write_pla_file(Pla::from_dataset(ds), path);
  const Pla in = read_pla_file(path);
  EXPECT_EQ(in.num_inputs, 3u);
  EXPECT_EQ(in.cubes.size(), 2u);
}

}  // namespace
}  // namespace lsml::pla
