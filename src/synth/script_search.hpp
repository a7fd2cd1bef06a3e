#pragma once
// Learned per-circuit script search behind the unified optimization API.
//
// OptRequest is the one way to ask for circuit optimization: which script
// (a preset, a pass list, or "auto"), under which SynthOptions contract,
// and — for auto — with which search seed/budget and experience store.
// All four optimization surfaces construct it (suite::RunnerOptions, the
// run/synth/serve CLI flags, the serve `synth` op), replacing the smeared
// script+budget+verify plumbing each used to hand-roll.
//
// "auto" runs ScriptSearch: a DRiLLS/LOSTIN-lite epsilon-greedy search
// over pass sequences, seeded from the presets, mutating and crossing
// synth::Script candidates, scoring every candidate through
// PassManager::run_cached (repeated probes are memo hits). What a search
// learns persists as one experience row per feature bucket
// (synth::FeatureVector::bucket_hash) in a suite::ResultCache under team
// key "scripts"; later requests whose circuit lands in a stored bucket are
// answered by the nearest-feature policy — stored script re-validated
// against the presets, no mutation loop — which is both the warm-cache
// speedup and the "never worse than fast" guarantee (the presets always
// compete).
//
// Determinism: the search RNG derives from
// Rng(search_seed).split(bucket, content_hash), the experience snapshot is
// loaded once at construction (same-run writes are never read back), and
// ties break on (ands, levels, pass count, canonical text) — so a fixed
// seed plus the same cache state yields byte-identical scripts at any
// thread count.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "suite/result_cache.hpp"
#include "synth/features.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script.hpp"

namespace lsml::synth {

/// Spelled as the script of an OptRequest to ask for search.
inline constexpr const char* kAutoScript = "auto";

/// The unified optimization request: script-or-auto, budgets, verify,
/// seed. Construct one, hand it to a ScriptSearch (or install it as the
/// process default) — nothing else decides how circuits get optimized.
struct OptRequest {
  /// Preset name, pass script text, or "auto" (kAutoScript).
  std::string script = "fast";
  /// The PassManager contract every candidate and the final run honor.
  SynthOptions options;
  /// Root seed of the auto search (per-circuit streams split off it).
  std::uint64_t search_seed = 2020;
  /// Candidate evaluations per cold search, presets included.
  int search_budget = 16;
  /// suite::ResultCache directory backing the experience table; empty
  /// disables persistence (every auto request searches cold).
  std::string experience_dir;

  [[nodiscard]] bool is_auto() const { return script == kAutoScript; }
  /// The fixed script this request names; throws std::invalid_argument on
  /// auto requests or unparseable text (validate() reports the latter).
  [[nodiscard]] Script resolved_script() const;
  /// Throws std::invalid_argument with context when `script` is neither
  /// "auto", a preset, nor valid pass syntax. CLI surfaces call this once
  /// and map the exception to their usage-error exit.
  void validate() const;
  /// Canonical display form: the resolved script's text, or "auto".
  [[nodiscard]] std::string script_display() const;
  /// Stable digest over resolved behavior: canonical script text (or the
  /// auto marker plus search seed/budget) and the SynthOptions. The
  /// experience directory is state, not configuration, and stays out.
  /// Participates in on-disk cache keys (suite::ResultCache), so recipe
  /// changes require bumping suite::kResultCacheSchemaVersion.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// What an optimization request produced: the pass-manager result plus
/// which script ran and how it was chosen.
struct OptOutcome {
  SynthResult result;
  /// The script that produced `result` (the request's own for fixed
  /// requests; the search/policy winner for auto).
  Script script;
  /// Auto request answered by a cold epsilon-greedy search.
  bool searched = false;
  /// Auto request answered from the experience table (warm bucket).
  bool from_policy = false;
  /// Candidate scripts evaluated (0 for fixed requests).
  int candidates_evaluated = 0;
};

class ScriptSearch {
 public:
  /// Snapshots the experience table of `request.experience_dir` (team key
  /// "scripts") at construction; the instance never re-reads it, so
  /// results cannot depend on what concurrent tasks store mid-run.
  explicit ScriptSearch(OptRequest request);

  [[nodiscard]] const OptRequest& request() const { return request_; }
  [[nodiscard]] std::size_t experience_size() const {
    return experience_.size();
  }

  /// Optimizes under the construction request.
  [[nodiscard]] OptOutcome optimize(const aig::Aig& in) const {
    return optimize(in, request_);
  }
  /// Optimizes under a per-call request (the serve op's per-request
  /// script/budget overrides). The experience snapshot and store stay the
  /// construction-time ones.
  [[nodiscard]] OptOutcome optimize(const aig::Aig& in,
                                    const OptRequest& request) const;

  /// The trained nearest-feature policy, search-free: the stored script of
  /// the exact feature bucket, else of the nearest stored features, else
  /// preset "resyn2" (the static prior when nothing is stored yet).
  [[nodiscard]] Script recommend(const FeatureVector& features) const;

 private:
  struct Experience {
    std::uint64_t bucket = 0;
    FeatureVector features;
    Script script;
  };

  [[nodiscard]] const Experience* exact_bucket(std::uint64_t bucket) const;

  OptRequest request_;
  suite::ResultCache store_;
  std::vector<Experience> experience_;  ///< sorted by bucket, unique
};

// ------------------------------------------------- process default plumbing
// The one process-wide default optimizer: learn::finish_model and the
// contest driver read the installed optimizer; drivers install theirs
// before spawning workers.

/// Copy of the installed default request.
[[nodiscard]] OptRequest default_opt_request();

/// The installed optimizer (its experience snapshot was loaded when the
/// current default was set). Grab once per task; the pointer stays valid
/// across a concurrent re-install.
[[nodiscard]] std::shared_ptr<const ScriptSearch> default_optimizer();

/// Replaces the process default and returns the previous request. Loads
/// the experience snapshot for auto requests — install before spawning
/// workers; the default itself is not locked against mid-task swaps.
OptRequest set_default_opt_request(OptRequest request);

/// RAII default swap for drivers and tests.
class ScopedOptRequest {
 public:
  explicit ScopedOptRequest(OptRequest request)
      : previous_(set_default_opt_request(std::move(request))) {}
  ~ScopedOptRequest() { set_default_opt_request(std::move(previous_)); }
  ScopedOptRequest(const ScopedOptRequest&) = delete;
  ScopedOptRequest& operator=(const ScopedOptRequest&) = delete;

 private:
  OptRequest previous_;
};

}  // namespace lsml::synth
