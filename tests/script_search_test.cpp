// synth::ScriptSearch tests: the unified OptRequest contract (validation,
// fingerprints pinned to their recorded values), the fixed-script
// optimizer as one memoized PassManager run, and the process-default
// plumbing.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "core/rng.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script_search.hpp"

namespace lsml::synth {
namespace {

aig::Aig test_cone(int seed) {
  core::Rng rng(static_cast<std::uint64_t>(seed) * 131 + 7);
  aig::ConeOptions cone;
  cone.num_inputs = 8;
  cone.num_ands = 100;
  return aig::random_cone(cone, rng);
}

std::string aag_text(const aig::Aig& g) {
  std::ostringstream os;
  aig::write_aag(g, os);
  return os.str();
}

// -------------------------------------------------------------- OptRequest

TEST(OptRequest, ValidatesPresetsAndPassScripts) {
  OptRequest request;
  request.script = "resyn2";
  EXPECT_NO_THROW(request.validate());
  EXPECT_EQ(request.script_display(), Script::preset("resyn2").str());

  request.script = "b; rw -k 6; fs -c 100";
  EXPECT_NO_THROW(request.validate());

  // "auto" names neither a preset nor a pass.
  for (const char* bad : {"auto", "frobnicate"}) {
    request.script = bad;
    EXPECT_THROW(request.validate(), std::invalid_argument) << bad;
    EXPECT_THROW(request.resolved_script(), std::invalid_argument) << bad;
  }
}

TEST(OptRequest, FingerprintCoversScriptAndOptions) {
  OptRequest fixed;
  fixed.script = "resyn2";
  OptRequest from_text = fixed;
  from_text.script = Script::preset("resyn2").str();  // same passes, spelled
  EXPECT_EQ(fixed.fingerprint(), from_text.fingerprint());

  OptRequest other = fixed;
  other.script = "fast";
  EXPECT_NE(fixed.fingerprint(), other.fingerprint());

  OptRequest capped = fixed;
  capped.options.node_budget = 123;
  EXPECT_NE(fixed.fingerprint(), capped.fingerprint());
}

TEST(OptRequest, FingerprintsArePinned) {
  // Fingerprints salt every suite::ResultCache key and serve model id, so
  // they must not move without a kResultCacheSchemaVersion bump. Each is
  // script.fingerprint() combined with options.fingerprint().
  struct Pin {
    const char* script;
    std::uint64_t contest;  ///< default SynthOptions (5000-AND cap, 3 rounds)
    std::uint64_t synth;    ///< uncapped, one round, SAT-verified
  };
  const Pin pins[] = {
      {"fast", 0xb3e66af0962765b6ULL, 0x1a16b4f4520cb932ULL},
      {"resyn2", 0x74b6991a8b77a5f1ULL, 0x541fb9c9b424b368ULL},
      {"resyn2fs", 0xabe1553345712ce5ULL, 0xfbfb75f4cd123ad5ULL},
      {"compress2max", 0x681190cca8853981ULL, 0xb33a7025e57e4575ULL},
      {"b;rw;fs -c 500", 0xfb3000a5d14929beULL, 0x3dcd21d77a0dcf92ULL},
  };
  for (const Pin& pin : pins) {
    OptRequest request;
    request.script = pin.script;
    EXPECT_EQ(request.fingerprint(), pin.contest) << pin.script;
    EXPECT_EQ(request.fingerprint(),
              core::hash_combine(request.resolved_script().fingerprint(),
                                 request.options.fingerprint()))
        << pin.script;

    request.options.node_budget = 0;
    request.options.max_rounds = 1;
    request.options.verify_equivalence = true;
    EXPECT_EQ(request.fingerprint(), pin.synth) << pin.script;
  }
  EXPECT_EQ(OptRequest{}.fingerprint(), pins[0].contest)
      << "the default request is fast under default options";
}

// ------------------------------------------------------------ ScriptSearch

TEST(ScriptSearch, FixedRequestIsThePassManagerRun) {
  const aig::Aig g = test_cone(3);
  OptRequest request;
  request.script = "resyn2";
  const ScriptSearch optimizer(request);
  PassManager::clear_memo();
  const std::uint64_t runs0 = PassManager::runs_executed();
  const OptOutcome out = optimizer.optimize(g);
  EXPECT_EQ(PassManager::runs_executed(), runs0 + 1);

  const SynthResult direct =
      PassManager(request.options).run_cached(g, Script::preset("resyn2"));
  EXPECT_EQ(PassManager::runs_executed(), runs0 + 1) << "a memo hit";
  EXPECT_EQ(aag_text(out.result.circuit), aag_text(direct.circuit));

  // A per-call request overrides the construction one: it runs the fast
  // script, which a direct run of that script then hits in the memo.
  OptRequest fast = request;
  fast.script = "fast";
  const OptOutcome overridden = optimizer.optimize(g, fast);
  EXPECT_EQ(PassManager::runs_executed(), runs0 + 2);
  const SynthResult direct_fast =
      PassManager(fast.options).run_cached(g, Script::preset("fast"));
  EXPECT_EQ(PassManager::runs_executed(), runs0 + 2) << "a memo hit";
  EXPECT_EQ(aag_text(overridden.result.circuit),
            aag_text(direct_fast.circuit));
}

// ------------------------------------------------- process default plumbing

TEST(DefaultOptRequest, ScopedInstallRestoresThePreviousDefault) {
  const OptRequest baseline = default_opt_request();
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
