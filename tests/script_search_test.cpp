// synth::ScriptSearch tests: feature extraction pinning, the unified
// OptRequest contract, search determinism under a fixed seed, experience
// persistence through suite::ResultCache, the never-worse-than-preset
// guarantee over a 50-cone pool, and policy/search agreement once a
// feature bucket is warm.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "core/rng.hpp"
#include "synth/features.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script_search.hpp"

namespace lsml::synth {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "lsml_scriptsearch_" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

aig::Aig test_cone(int seed, std::uint32_t inputs = 8,
                   std::uint32_t ands = 100) {
  core::Rng rng(static_cast<std::uint64_t>(seed) * 131 + 7);
  aig::ConeOptions cone;
  cone.num_inputs = inputs;
  cone.num_ands = ands;
  cone.flavor = seed % 3 == 0   ? aig::ConeFlavor::kXorRich
                : seed % 3 == 1 ? aig::ConeFlavor::kArith
                                : aig::ConeFlavor::kRandom;
  return aig::random_cone(cone, rng);
}

std::string aag_text(const aig::Aig& g) {
  std::ostringstream os;
  aig::write_aag(g, os);
  return os.str();
}

bool equivalent_exhaustive(const aig::Aig& a, const aig::Aig& b) {
  const std::size_t rows = std::size_t{1} << a.num_pis();
  std::vector<core::BitVec> cols(a.num_pis(), core::BitVec(rows));
  std::vector<const core::BitVec*> ptrs;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      if ((r >> c) & 1) {
        cols[c].set(r, true);
      }
    }
    ptrs.push_back(&cols[c]);
  }
  return a.simulate(ptrs)[0] == b.simulate(ptrs)[0];
}

// ---------------------------------------------------------------- features

TEST(Features, PinsTheExtractionRecipe) {
  // A hand-built 3-gate tree pins every extracted quantity; any change to
  // the recipe must show up here (and bump kFeatureSchemaVersion).
  aig::Aig g(4);
  const aig::Lit ab = g.and2(g.pi(0), g.pi(1));
  const aig::Lit cd = g.and2(g.pi(2), g.pi(3));
  g.add_output(g.and2(ab, cd));

  const FeatureVector f = extract_features(g);
  EXPECT_EQ(f.num_pis, 4u);
  EXPECT_EQ(f.num_pos, 1u);
  EXPECT_EQ(f.num_ands, 3u);
  EXPECT_EQ(f.num_levels, 2u);
  EXPECT_EQ(f.max_fanout, 1u);
  EXPECT_EQ(f.max_cone, 3u);
  EXPECT_DOUBLE_EQ(f.avg_fanout, 1.0);
  EXPECT_DOUBLE_EQ(f.avg_cone, 3.0);
  // Level octiles over depth 2: levels {1, 1} land in bucket 0, level {2}
  // in bucket 8 * (2 - 1) / 2 = 4.
  EXPECT_DOUBLE_EQ(f.level_histogram[0], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(f.level_histogram[4], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(f.level_histogram[1] + f.level_histogram[2] +
                       f.level_histogram[3] + f.level_histogram[5] +
                       f.level_histogram[6] + f.level_histogram[7],
                   0.0);
  // The serialized form carries the schema version.
  EXPECT_EQ(f.str().rfind("fv v1 ", 0), 0u) << f.str();
  EXPECT_EQ(f.bucket_name().rfind("fb-", 0), 0u);
  EXPECT_EQ(f.bucket_name().size(), 3u + 16u);
}

TEST(Features, DeterministicAndRoundTrips) {
  for (int seed = 0; seed < 6; ++seed) {
    const aig::Aig g = test_cone(seed);
    const FeatureVector a = extract_features(g);
    const FeatureVector b = extract_features(g);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_EQ(a.bucket_hash(), b.bucket_hash());
    EXPECT_DOUBLE_EQ(feature_distance(a, b), 0.0);

    FeatureVector back;
    ASSERT_TRUE(FeatureVector::parse(a.str(), &back)) << a.str();
    EXPECT_EQ(back.str(), a.str()) << "bit-exact text round-trip";
    EXPECT_EQ(back.bucket_hash(), a.bucket_hash());
  }
  FeatureVector out;
  EXPECT_FALSE(FeatureVector::parse("", &out));
  EXPECT_FALSE(FeatureVector::parse("fv v999 pis 1", &out));
  EXPECT_FALSE(FeatureVector::parse("not features at all", &out));
}

TEST(Features, BucketsSeparateDissimilarCircuits) {
  // A 4-PI tree and a 32-PI cone must never share an experience bucket;
  // distance must see the difference too.
  aig::Aig tiny(4);
  tiny.add_output(tiny.and2(tiny.and2(tiny.pi(0), tiny.pi(1)),
                            tiny.and2(tiny.pi(2), tiny.pi(3))));
  const aig::Aig big = test_cone(2, 32, 500);
  const FeatureVector ft = extract_features(tiny);
  const FeatureVector fb = extract_features(big);
  EXPECT_NE(ft.bucket_hash(), fb.bucket_hash());
  EXPECT_GT(feature_distance(ft, fb), 0.0);
}

// -------------------------------------------------------------- OptRequest

TEST(OptRequest, ValidatesScriptOrAuto) {
  OptRequest request;
  request.script = "resyn2";
  EXPECT_NO_THROW(request.validate());
  EXPECT_EQ(request.script_display(), Script::preset("resyn2").str());
  EXPECT_FALSE(request.is_auto());

  request.script = "b; rw -k 6; fs -c 100";
  EXPECT_NO_THROW(request.validate());

  request.script = kAutoScript;
  EXPECT_TRUE(request.is_auto());
  EXPECT_NO_THROW(request.validate());
  EXPECT_EQ(request.script_display(), "auto");
  EXPECT_THROW(request.resolved_script(), std::invalid_argument);

  request.script = "frobnicate";
  EXPECT_THROW(request.validate(), std::invalid_argument);
}

TEST(OptRequest, FingerprintCoversBehaviorNotState) {
  OptRequest fixed;
  fixed.script = "resyn2";
  OptRequest from_text = fixed;
  from_text.script = Script::preset("resyn2").str();  // same passes, spelled
  EXPECT_EQ(fixed.fingerprint(), from_text.fingerprint());

  OptRequest automatic;
  automatic.script = kAutoScript;
  EXPECT_NE(fixed.fingerprint(), automatic.fingerprint());

  OptRequest reseeded = automatic;
  reseeded.search_seed = 7;
  EXPECT_NE(automatic.fingerprint(), reseeded.fingerprint());

  OptRequest rebudgeted = automatic;
  rebudgeted.search_budget = 8;
  EXPECT_NE(automatic.fingerprint(), rebudgeted.fingerprint());

  OptRequest capped = fixed;
  capped.options.node_budget = 123;
  EXPECT_NE(fixed.fingerprint(), capped.fingerprint());

  // Where experience lives is state, not configuration: same key, so a
  // cache row computed with one store directory serves any other.
  OptRequest elsewhere = automatic;
  elsewhere.experience_dir = "/tmp/somewhere-else";
  EXPECT_EQ(automatic.fingerprint(), elsewhere.fingerprint());
}

// ------------------------------------------------------------ ScriptSearch

TEST(ScriptSearch, FixedRequestIsThePassManagerRun) {
  const aig::Aig g = test_cone(3);
  OptRequest request;
  request.script = "resyn2";
  const ScriptSearch optimizer(request);
  const OptOutcome out = optimizer.optimize(g);
  EXPECT_FALSE(out.searched);
  EXPECT_FALSE(out.from_policy);
  EXPECT_EQ(out.candidates_evaluated, 0);
  EXPECT_EQ(out.script.str(), Script::preset("resyn2").str());

  const SynthResult direct =
      PassManager(request.options).run_cached(g, Script::preset("resyn2"));
  EXPECT_EQ(aag_text(out.result.circuit), aag_text(direct.circuit));
}

TEST(ScriptSearch, AutoIsDeterministicUnderAFixedSeed) {
  const aig::Aig g = test_cone(4);
  OptRequest request;
  request.script = kAutoScript;
  request.search_budget = 10;
  request.search_seed = 42;

  const ScriptSearch first(request);
  const OptOutcome a = first.optimize(g);
  EXPECT_TRUE(a.searched);
  EXPECT_FALSE(a.from_policy);
  EXPECT_GE(a.candidates_evaluated, 4) << "the presets always compete";

  // A fresh instance and a cold memo must reproduce the byte pattern.
  PassManager::clear_memo();
  const ScriptSearch second(request);
  const OptOutcome b = second.optimize(g);
  EXPECT_EQ(a.script.str(), b.script.str());
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
  EXPECT_EQ(aag_text(a.result.circuit), aag_text(b.result.circuit));

  // A different seed explores a different neighborhood (scripts may still
  // coincide, but the stream must not be the seed-independent one).
  OptRequest reseeded = request;
  reseeded.search_seed = 43;
  const OptOutcome c = ScriptSearch(reseeded).optimize(g);
  EXPECT_TRUE(equivalent_exhaustive(g, c.result.circuit));
}

TEST(ScriptSearch, ExperienceRoundTripsThroughTheResultCache) {
  const std::string dir = fresh_dir("experience");
  const aig::Aig g = test_cone(5);
  OptRequest request;
  request.script = kAutoScript;
  request.search_budget = 10;
  request.experience_dir = dir;

  const ScriptSearch cold(request);
  EXPECT_EQ(cold.experience_size(), 0u);
  const OptOutcome searched = cold.optimize(g);
  EXPECT_TRUE(searched.searched);

  // The row landed under team key "scripts", named by feature bucket.
  const FeatureVector features = extract_features(g);
  const suite::ResultCache store(dir);
  const auto row = store.load("scripts", features.bucket_name(),
                              features.bucket_hash());
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->result.method, searched.script.str());
  EXPECT_EQ(row->result.opt_script, searched.script.str());
  FeatureVector stored;
  ASSERT_TRUE(FeatureVector::parse(row->aag, &stored));
  EXPECT_EQ(stored.bucket_hash(), features.bucket_hash());

  // A new instance snapshots it and answers warm: same script, same
  // circuit, no mutation loop (only presets + the stored script compete).
  PassManager::clear_memo();
  const ScriptSearch warm(request);
  EXPECT_EQ(warm.experience_size(), 1u);
  const OptOutcome recalled = warm.optimize(g);
  EXPECT_TRUE(recalled.from_policy);
  EXPECT_FALSE(recalled.searched);
  EXPECT_LE(recalled.candidates_evaluated, 5);
  EXPECT_EQ(recalled.script.str(), searched.script.str());
  EXPECT_EQ(aag_text(recalled.result.circuit),
            aag_text(searched.result.circuit));
}

TEST(ScriptSearch, AutoNeverWorseThanThePresetsOnAPool) {
  // The headline guarantee over 50 varied cones: the auto winner is never
  // worse than `fast` or `resyn2` (the presets always compete), and every
  // winner preserves the function.
  OptRequest request;
  request.script = kAutoScript;
  request.search_budget = 8;
  const ScriptSearch optimizer(request);
  SynthOptions fixed_options;
  const PassManager manager(fixed_options);

  int strictly_better_than_resyn2 = 0;
  for (int seed = 0; seed < 50; ++seed) {
    const aig::Aig g = test_cone(seed, 7, 60 + (seed % 5) * 20);
    const OptOutcome out = optimizer.optimize(g);
    const SynthResult fast = manager.run_cached(g, Script::preset("fast"));
    const SynthResult resyn2 =
        manager.run_cached(g, Script::preset("resyn2"));
    EXPECT_LE(out.result.circuit.num_ands(), fast.circuit.num_ands())
        << "seed " << seed;
    EXPECT_LE(out.result.circuit.num_ands(), resyn2.circuit.num_ands())
        << "seed " << seed;
    EXPECT_TRUE(equivalent_exhaustive(g, out.result.circuit))
        << "seed " << seed;
    if (out.result.circuit.num_ands() < resyn2.circuit.num_ands()) {
      ++strictly_better_than_resyn2;
    }
  }
  EXPECT_GT(strictly_better_than_resyn2, 0)
      << "search should beat resyn2 outright somewhere in 50 cones";
}

TEST(ScriptSearch, PolicyAgreesWithTheSearchAfterWarmup) {
  const std::string dir = fresh_dir("policy");
  OptRequest request;
  request.script = kAutoScript;
  request.search_budget = 10;
  request.experience_dir = dir;

  // Warm-up: cold-search a handful of structurally distinct cones.
  std::vector<aig::Aig> pool;
  std::set<std::uint64_t> buckets;
  for (int seed = 0; buckets.size() < 4 && seed < 32; ++seed) {
    aig::Aig g = test_cone(seed, 6 + (seed % 3), 40 + seed * 11);
    if (buckets.insert(extract_features(g).bucket_hash()).second) {
      pool.push_back(std::move(g));
    }
  }
  ASSERT_EQ(pool.size(), 4u);
  const ScriptSearch cold(request);
  std::vector<OptOutcome> winners;
  for (const aig::Aig& g : pool) {
    winners.push_back(cold.optimize(g));
    EXPECT_TRUE(winners.back().searched);
  }

  // After warm-up the trained policy alone names each bucket's winner, and
  // a warm optimize() reproduces the searched artifact bit for bit.
  const ScriptSearch warm(request);
  EXPECT_EQ(warm.experience_size(), 4u);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Script recommended = warm.recommend(extract_features(pool[i]));
    EXPECT_EQ(recommended.str(), winners[i].script.str()) << "cone " << i;
    const OptOutcome recalled = warm.optimize(pool[i]);
    EXPECT_TRUE(recalled.from_policy);
    EXPECT_EQ(recalled.script.str(), winners[i].script.str());
    EXPECT_EQ(aag_text(recalled.result.circuit),
              aag_text(winners[i].result.circuit));
  }
  // Unseen features fall back to the nearest stored neighbour (or the
  // resyn2 prior when nothing is stored) — never an invalid script.
  const Script fallback =
      warm.recommend(extract_features(test_cone(99, 16, 300)));
  EXPECT_FALSE(fallback.passes.empty());
  const ScriptSearch empty(OptRequest{});
  EXPECT_EQ(empty.recommend(extract_features(pool[0])).str(),
            Script::preset("resyn2").str());
}

TEST(ScriptSearch, AutoCertifiesOnlyTheWinnerUnderVerify) {
  const aig::Aig g = test_cone(6);
  OptRequest request;
  request.script = kAutoScript;
  request.search_budget = 8;
  request.options.verify_equivalence = true;
  const OptOutcome out = ScriptSearch(request).optimize(g);
  EXPECT_EQ(out.result.verify, VerifyStatus::kExact);
  EXPECT_TRUE(equivalent_exhaustive(g, out.result.circuit));
}

// ------------------------------------------------- process default plumbing

TEST(DefaultOptRequest, ScopedInstallRestoresThePreviousDefault) {
  const OptRequest baseline = default_opt_request();
  {
    OptRequest automatic;
    automatic.script = kAutoScript;
    automatic.search_budget = 6;
    const ScopedOptRequest scoped(automatic);
    EXPECT_TRUE(default_opt_request().is_auto());
    EXPECT_EQ(default_opt_request().search_budget, 6);
    EXPECT_EQ(default_optimizer()->request().script, kAutoScript);
  }
  EXPECT_EQ(default_opt_request().fingerprint(), baseline.fingerprint());

  OptRequest resyn2;
  resyn2.script = "resyn2";
  resyn2.options.node_budget = 777;
  {
    const ScopedOptRequest scoped(resyn2);
    EXPECT_EQ(default_opt_request().script_display(),
              Script::preset("resyn2").str());
    EXPECT_EQ(default_opt_request().options.node_budget, 777u);
    EXPECT_EQ(default_optimizer()->request().script, "resyn2");
  }
  EXPECT_EQ(default_opt_request().fingerprint(), baseline.fingerprint());
}

}  // namespace
}  // namespace lsml::synth
