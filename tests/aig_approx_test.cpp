// Team 1's constant-replacement approximation: budget compliance, bounded
// degradation on random cones, the protect-depth guard, and byte identity
// of the incremental implementation with the straightforward rebuild loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "aig/aig_approx.hpp"
#include "aig/aig_random.hpp"
#include "aig/sim_engine.hpp"
#include "core/rng.hpp"
#include "obs/registry.hpp"

namespace lsml::aig {
namespace {

// ---- Oracle: one full rebuild + cleanup + re-simulation per round. ----

/// Replaces one node (by var id) with a constant and cleans up.
Aig replace_with_constant(const Aig& in, std::uint32_t var, bool value) {
  Aig out(in.num_pis());
  std::vector<Lit> map(in.num_nodes(), kLitFalse);
  for (std::uint32_t i = 0; i < in.num_pis(); ++i) {
    map[i + 1] = out.pi(i);
  }
  for (std::uint32_t v = in.num_pis() + 1; v < in.num_nodes(); ++v) {
    if (v == var) {
      map[v] = value ? kLitTrue : kLitFalse;
      continue;
    }
    const Node& n = in.node(v);
    map[v] = out.and2(lit_notc(map[lit_var(n.fanin0)], lit_compl(n.fanin0)),
                      lit_notc(map[lit_var(n.fanin1)], lit_compl(n.fanin1)));
  }
  for (Lit o : in.outputs()) {
    out.add_output(lit_notc(map[lit_var(o)], lit_compl(o)));
  }
  return out.cleanup();
}

// Depth of each node measured from the outputs (0 = drives an output).
std::vector<std::uint32_t> output_distance(const Aig& g) {
  constexpr std::uint32_t kInf = ~0u;
  std::vector<std::uint32_t> dist(g.num_nodes(), kInf);
  for (Lit o : g.outputs()) {
    dist[lit_var(o)] = 0;
  }
  for (std::uint32_t v = g.num_nodes() - 1; v > g.num_pis(); --v) {
    if (dist[v] == kInf) {
      continue;
    }
    for (Lit f : {g.node(v).fanin0, g.node(v).fanin1}) {
      dist[lit_var(f)] = std::min(dist[lit_var(f)], dist[v] + 1);
    }
  }
  return dist;
}

Aig reference_approximate(const Aig& in, const ApproxOptions& options,
                          core::Rng& rng) {
  Aig current = in.cleanup();
  SimEngine engine(current);
  while (current.num_ands() > options.node_budget) {
    std::vector<core::BitVec> patterns(current.num_pis(),
                                       core::BitVec(options.num_patterns));
    std::vector<const core::BitVec*> pi_values;
    for (auto& p : patterns) {
      p.randomize(rng);
      pi_values.push_back(&p);
    }
    engine.bind(current);
    engine.run(pi_values);
    const auto dist = output_distance(current);

    std::uint32_t best_var = 0;
    std::size_t best_score = 0;
    bool best_value = false;
    for (std::uint32_t v = current.num_pis() + 1; v < current.num_nodes();
         ++v) {
      if (dist[v] < options.protect_depth) {
        continue;
      }
      const std::size_t ones = engine.count_ones(v);
      const std::size_t zeros = options.num_patterns - ones;
      if (zeros >= ones && zeros > best_score) {
        best_score = zeros;
        best_var = v;
        best_value = false;
      } else if (ones > zeros && ones > best_score) {
        best_score = ones;
        best_var = v;
        best_value = true;
      }
    }
    if (best_var == 0) {
      break;
    }
    Aig next = replace_with_constant(current, best_var, best_value);
    if (next.num_ands() >= current.num_ands()) {
      break;
    }
    current = std::move(next);
  }
  return current;
}

/// Runs both implementations from the same seed; they must agree on the
/// structure, the strash mode and the random stream they leave behind.
void expect_matches_oracle(const Aig& in, const ApproxOptions& options,
                           std::uint64_t seed) {
  core::Rng rng_ref(seed);
  core::Rng rng_new(seed);
  const Aig want = reference_approximate(in, options, rng_ref);
  const Aig got = approximate_to_budget(in, options, rng_new);
  EXPECT_EQ(got.content_hash(), want.content_hash())
      << "budget " << options.node_budget << " patterns "
      << options.num_patterns << " protect " << options.protect_depth;
  EXPECT_EQ(got.num_ands(), want.num_ands());
  EXPECT_EQ(got.strash_mode(), want.strash_mode());
  EXPECT_EQ(rng_new.next(), rng_ref.next());
}

TEST(ReplaceWithConstant, RewiresSingleNode) {
  Aig g(2);
  const Lit ab = g.and2(g.pi(0), g.pi(1));
  g.add_output(g.or2(ab, g.pi(0)));
  const Aig zeroed = replace_with_constant(g, lit_var(ab), false);
  // With ab = 0, output becomes just pi(0).
  EXPECT_TRUE(zeroed.eval_row({1, 0})[0]);
  EXPECT_FALSE(zeroed.eval_row({0, 1})[0]);
  const Aig oned = replace_with_constant(g, lit_var(ab), true);
  EXPECT_TRUE(oned.eval_row({0, 0})[0]);
}

TEST(Approximate, AlreadyWithinBudgetIsUntouched) {
  Aig g(2);
  g.add_output(g.and2(g.pi(0), g.pi(1)));
  ApproxOptions options;
  options.node_budget = 10;
  core::Rng rng(1);
  const Aig out = approximate_to_budget(g, options, rng);
  EXPECT_EQ(out.num_ands(), 1u);
}

class ApproxBudgets : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ApproxBudgets, MeetsBudgetAndKeepsReasonableAgreement) {
  core::Rng build_rng(42);
  ConeOptions cone;
  cone.num_inputs = 16;
  cone.num_ands = 1500;  // construction target; cleanup keeps the cone
  const Aig g = random_cone(cone, build_rng);
  ASSERT_GT(g.num_ands(), GetParam());

  ApproxOptions options;
  options.node_budget = GetParam();
  options.num_patterns = 1024;
  core::Rng rng(7);
  const Aig approx = approximate_to_budget(g, options, rng);
  EXPECT_LE(approx.num_ands(), GetParam());

  // Agreement with the original must beat coin-flipping: the paper reports
  // ~5% accuracy loss when removing thousands of nodes.
  std::vector<core::BitVec> cols(16, core::BitVec(4096));
  std::vector<const core::BitVec*> ptrs;
  core::Rng sim_rng(9);
  for (auto& c : cols) {
    c.randomize(sim_rng);
    ptrs.push_back(&c);
  }
  const auto a = g.simulate(ptrs);
  const auto b = approx.simulate(ptrs);
  const double agree =
      static_cast<double>(a[0].count_equal(b[0])) / 4096.0;
  EXPECT_GT(agree, 0.6) << "budget " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Budgets, ApproxBudgets,
                         ::testing::Values(300u, 150u, 60u));

TEST(Approximate, ProtectDepthKeepsOutputCone) {
  core::Rng build_rng(11);
  ConeOptions cone;
  cone.num_inputs = 12;
  cone.num_ands = 200;
  const Aig g = random_cone(cone, build_rng);
  ApproxOptions options;
  options.node_budget = 50;
  options.protect_depth = 2;
  core::Rng rng(3);
  const Aig approx = approximate_to_budget(g, options, rng);
  EXPECT_LE(approx.num_ands(), 50u);
  // The output must not have collapsed to a constant.
  core::Rng probe(5);
  const double onset = onset_fraction(approx, 2048, probe);
  EXPECT_GT(onset, 0.0);
  EXPECT_LT(onset, 1.0);
}

// ---- Incremental rounds vs the rebuild oracle. ----

TEST(ApproxOracle, MatchesOnSeededRandomCones) {
  constexpr ConeFlavor kFlavors[] = {ConeFlavor::kRandom,
                                     ConeFlavor::kXorRich, ConeFlavor::kArith};
  constexpr std::size_t kPatterns[] = {64, 1000, 2048};
  obs::Counter& rounds =
      obs::Registry::instance().counter("lsml_synth_approx_rounds_total");
  const std::uint64_t rounds_before = rounds.load();
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    core::Rng draw(seed * 7919 + 1);
    ConeOptions cone;
    cone.flavor = kFlavors[seed % 3];
    cone.num_inputs = 4 + static_cast<std::uint32_t>(draw.below(14));
    cone.num_ands = 60 + static_cast<std::uint32_t>(draw.below(540));
    cone.max_tries = 4;
    cone.balance_patterns = 256;
    const Aig g = random_cone(cone, draw);
    ApproxOptions options;
    options.num_patterns = kPatterns[(seed / 3) % 3];
    options.protect_depth = static_cast<std::uint32_t>(seed % 4);
    options.node_budget =
        static_cast<std::uint32_t>(draw.below(g.num_ands() + 1));
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_oracle(g, options, seed);
  }
  // The sweep must really exercise propagation: thousands of rounds, each
  // counted once per call on the registry counter.
  EXPECT_GT(rounds.load() - rounds_before, 3000u);
}

TEST(ApproxOracle, RevivesNodeThatLostItsLastReference) {
  // t (1/16 ones) is the most constant unprotected node. Tying it to 0
  // folds x to 0, which drops d's last reference, and then turns u into
  // AND(a, b). A rebuild still has d in its table at that point, so u
  // merges into d, which stays ahead of m in the numbering.
  Aig g(7);
  const Lit a = g.pi(0), b = g.pi(1), s = g.pi(2);
  const Lit rw = g.and2(g.pi(5), g.pi(6));
  const Lit t = g.and2(g.pi(3), g.and2(g.pi(4), rw));
  const Lit d = g.and2(a, b);
  const Lit x = g.and2(d, t);
  const Lit m = g.and2(a, s);
  const Lit u = g.and2(a, g.and2(b, lit_not(t)));
  g.add_output(x);
  g.add_output(m);
  g.add_output(u);
  ApproxOptions options;
  options.protect_depth = 1;
  options.node_budget = g.num_ands() - 1;
  expect_matches_oracle(g, options, 21);

  Aig want(7);
  const Lit want_d = want.and2(a, b);
  const Lit want_m = want.and2(a, s);
  want.add_output(kLitFalse);
  want.add_output(want_m);
  want.add_output(want_d);
  core::Rng rng(21);
  EXPECT_EQ(approximate_to_budget(g, options, rng).content_hash(),
            want.content_hash());
}

TEST(ApproxOracle, MatchesOnTwoOutputsWithSharedLogic) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    core::Rng draw(seed + 100);
    ConeOptions cone;
    cone.num_inputs = 10;
    cone.num_ands = 150;
    cone.flavor = seed % 2 == 0 ? ConeFlavor::kRandom : ConeFlavor::kXorRich;
    const Aig a = random_cone(cone, draw);
    const Aig b = random_cone(cone, draw);
    Aig g(cone.num_inputs);
    const Lit la = append_aig(g, a);
    const Lit lb = append_aig(g, b);
    g.add_output(la);
    g.add_output(lb);
    g.add_output(g.xor2(la, lb));
    ApproxOptions options;
    options.num_patterns = 1000;
    options.protect_depth = static_cast<std::uint32_t>(seed % 4);
    options.node_budget = g.num_ands() / 4;
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_oracle(g, options, seed);
  }
}

TEST(ApproxOracle, MatchesOnTwoLevelStrashInput) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    core::Rng draw(seed + 200);
    ConeOptions cone;
    cone.num_inputs = 12;
    cone.num_ands = 250;
    cone.flavor = static_cast<ConeFlavor>(seed % 3);
    const Aig src = random_cone(cone, draw);
    Aig g(cone.num_inputs, Aig::StrashMode::kTwoLevel);
    g.add_output(append_aig(g, src));
    ApproxOptions options;
    options.num_patterns = 2048;
    options.protect_depth = static_cast<std::uint32_t>(seed % 4);
    options.node_budget = g.num_ands() / 3;
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_oracle(g, options, seed);
  }
}

TEST(ApproxOracle, WithinBudgetReturnsCleanupAndDrawsNothing) {
  Aig g(3);
  const Lit ab = g.and2(g.pi(0), g.pi(1));
  g.and2(g.pi(1), g.pi(2));  // dangling
  g.add_output(g.and2(ab, g.pi(2)));
  ApproxOptions options;
  options.node_budget = 2;
  expect_matches_oracle(g, options, 5);
  core::Rng rng(5);
  const Aig out = approximate_to_budget(g, options, rng);
  EXPECT_EQ(out.content_hash(), g.cleanup().content_hash());
  EXPECT_EQ(rng.next(), core::Rng(5).next());
}

TEST(ApproxOracle, AllProtectedStopsAfterOneDraw) {
  // No round replaces anything, so the input's strash mode survives.
  Aig g(4, Aig::StrashMode::kTwoLevel);
  const Lit ab = g.and2(g.pi(0), g.pi(1));
  const Lit cd = g.and2(g.pi(2), g.pi(3));
  g.add_output(g.and2(ab, cd));
  ApproxOptions options;
  options.node_budget = 0;
  options.protect_depth = 3;
  expect_matches_oracle(g, options, 9);
  core::Rng rng(9);
  const Aig out = approximate_to_budget(g, options, rng);
  EXPECT_EQ(out.num_ands(), 3u);
  EXPECT_EQ(out.strash_mode(), Aig::StrashMode::kTwoLevel);
}

TEST(ApproxOracle, OutputsOnPisAndConstantsProtectNothingBelowThem) {
  // Outputs driven by a PI, a constant and a complemented PI sit next to a
  // real cone; the protected set must start from the cone's output alone.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    core::Rng draw(seed + 400);
    ConeOptions cone;
    cone.num_inputs = 9;
    cone.num_ands = 140;
    cone.flavor = static_cast<ConeFlavor>(seed % 3);
    const Aig src = random_cone(cone, draw);
    Aig g(cone.num_inputs);
    g.add_output(g.pi(3));
    g.add_output(seed % 2 == 0 ? kLitFalse : kLitTrue);
    g.add_output(append_aig(g, src));
    g.add_output(lit_not(g.pi(0)));
    ApproxOptions options;
    options.num_patterns = 1000;
    options.protect_depth = static_cast<std::uint32_t>(seed / 2);
    options.node_budget = g.num_ands() / 3;
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_oracle(g, options, seed);
  }
}

TEST(ApproxOracle, ZeroBudgetUnprotectedEmptiesTheGraph) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    core::Rng draw(seed + 300);
    ConeOptions cone;
    cone.num_inputs = 8;
    cone.num_ands = 120;
    cone.flavor = static_cast<ConeFlavor>(seed % 3);
    const Aig g = random_cone(cone, draw);
    ApproxOptions options;
    options.node_budget = 0;
    options.protect_depth = 0;
    options.num_patterns = seed % 2 == 0 ? 64 : 1000;
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_oracle(g, options, seed);
    core::Rng rng(seed);
    EXPECT_EQ(approximate_to_budget(g, options, rng).num_ands(), 0u);
  }
}

}  // namespace
}  // namespace lsml::aig
