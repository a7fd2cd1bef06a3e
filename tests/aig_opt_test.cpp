// Optimization passes: functional equivalence (the non-negotiable), size
// never grows through the `fast` preset, and balance reduces depth of chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "aig/aig_build.hpp"
#include "aig/aig_opt.hpp"
#include "aig/aig_random.hpp"
#include "core/rng.hpp"
#include "obs/registry.hpp"
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

// The straightforward form of expand_tt: for every minterm over `merged`,
// gather the cut leaves' bits and look the table up.
std::uint64_t expand_tt_reference(std::uint64_t tt,
                                  const std::vector<std::uint32_t>& cut,
                                  const std::vector<std::uint32_t>& merged) {
  std::uint64_t result = 0;
  for (int m = 0; m < (1 << merged.size()); ++m) {
    int sub = 0;
    for (std::size_t i = 0; i < cut.size(); ++i) {
      const auto pos =
          std::find(merged.begin(), merged.end(), cut[i]) - merged.begin();
      if (m & (1 << pos)) {
        sub |= 1 << i;
      }
    }
    if (tt & (1ULL << sub)) {
      result |= 1ULL << m;
    }
  }
  return result;
}

// Low 2^vars bits of tt repeated across all 64 (the rewriter's cut form).
std::uint64_t replicate(std::uint64_t tt, std::size_t vars) {
  if (vars >= 6) {
    return tt;
  }
  const int bits = 1 << vars;
  std::uint64_t out = tt & ((1ULL << bits) - 1);
  for (int b = bits; b < 64; b <<= 1) {
    out |= out << b;
  }
  return out;
}

TEST(ExpandTt, MatchesTheMintermLoopOnEverySubCut) {
  core::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t size = 1 + trial % 6;
    std::vector<std::uint32_t> merged;
    while (merged.size() < size) {
      const auto leaf = static_cast<std::uint32_t>(rng.below(1000));
      if (std::find(merged.begin(), merged.end(), leaf) == merged.end()) {
        merged.push_back(leaf);
      }
    }
    std::sort(merged.begin(), merged.end());
    for (std::uint32_t mask = 1; mask < (1u << size); ++mask) {
      std::vector<std::uint32_t> cut;
      for (std::size_t i = 0; i < size; ++i) {
        if (mask & (1u << i)) {
          cut.push_back(merged[i]);
        }
      }
      const std::uint64_t tt = replicate(rng.next(), cut.size());
      const std::uint64_t want =
          replicate(expand_tt_reference(tt, cut, merged), size);
      ASSERT_EQ(expand_tt(tt, cut, merged), want)
          << "trial " << trial << " sub-cut mask " << mask;
    }
  }
}

// ~200 small random AIGs (a few outputs over shared logic): enough
// repeated cut functions to exercise both memo hits and misses.
std::vector<Aig> rewrite_pool() {
  std::vector<Aig> pool;
  core::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    Aig g(4 + static_cast<std::uint32_t>(i % 5));
    std::vector<Lit> lits;
    for (std::uint32_t p = 0; p < g.num_pis(); ++p) {
      lits.push_back(g.pi(p));
    }
    for (int n = 0; n < 10 + i % 16; ++n) {
      const Lit a = lits[rng.below(lits.size())];
      const Lit b = lits[rng.below(lits.size())];
      lits.push_back(g.and2(lit_notc(a, rng.flip(0.5)),
                            lit_notc(b, rng.flip(0.5))));
    }
    for (std::size_t o = lits.size() - 3; o < lits.size(); ++o) {
      g.add_output(lits[o]);
    }
    pool.push_back(g);
  }
  return pool;
}

struct RewriteConfig {
  int cut_size;
  int cuts_per_node;
};

std::vector<RewriteConfig> rewrite_configs() {
  std::vector<RewriteConfig> configs;
  for (int k = 2; k <= 6; ++k) {
    configs.push_back({k, 1});
    configs.push_back({k, 8});  // rewrite()'s default
  }
  return configs;
}

std::vector<std::uint64_t> rewrite_hashes(const std::vector<Aig>& pool,
                                          bool clear_each) {
  std::vector<std::uint64_t> hashes;
  for (const RewriteConfig& config : rewrite_configs()) {
    for (const Aig& g : pool) {
      if (clear_each) {
        clear_rewrite_memo();
      }
      hashes.push_back(
          rewrite(g, config.cut_size, config.cuts_per_node).content_hash());
    }
  }
  return hashes;
}

std::uint64_t cut_memo_hits() {
  return obs::Registry::instance()
      .counter("lsml_synth_cut_memo_hits_total")
      .load();
}

TEST(RewriteMemo, ColdWarmAndClearedMemoGiveTheSameCircuits) {
  const std::vector<Aig> pool = rewrite_pool();
  const auto cold = rewrite_hashes(pool, /*clear_each=*/true);
  const std::uint64_t hits_before = cut_memo_hits();
  const auto warm = rewrite_hashes(pool, /*clear_each=*/false);
  EXPECT_GT(cut_memo_hits(), hits_before);
  EXPECT_EQ(warm, cold);
  synth::PassManager::clear_memo();
  EXPECT_EQ(rewrite_hashes(pool, /*clear_each=*/false), cold);
}

TEST(RewriteMemo, ConcurrentRewritesSurviveClearing) {
  const std::vector<Aig> pool = rewrite_pool();
  synth::PassManager::clear_memo();
  const auto serial = rewrite_hashes(pool, /*clear_each=*/false);
  std::atomic<bool> done{false};
  std::thread clearer([&] {
    while (!done.load()) {
      synth::PassManager::clear_memo();
      std::this_thread::yield();
    }
  });
  std::vector<std::vector<std::uint64_t>> results(4);
  std::vector<std::thread> workers;
  for (auto& result : results) {
    workers.emplace_back([&pool, &result] {
      result = rewrite_hashes(pool, /*clear_each=*/false);
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  done = true;
  clearer.join();
  for (const auto& result : results) {
    EXPECT_EQ(result, serial);
  }
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
