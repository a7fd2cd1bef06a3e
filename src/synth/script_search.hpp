#pragma once
// The unified optimization API: one request type, one fixed-script
// optimizer.
//
// OptRequest is the one way to ask for circuit optimization: which script
// (a preset or a pass list) under which SynthOptions contract. All four
// optimization surfaces construct it (suite::RunnerOptions, the
// run/synth/serve CLI flags, the serve `synth` op), replacing the smeared
// script+budget+verify plumbing each used to hand-roll.
//
// ScriptSearch::optimize is exactly one PassManager::run_cached call of
// the request's script: runs are memoized process-wide on (circuit
// structure, script, options), so identical circuits optimize once per
// process and every thread gets bit-identical results.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "synth/pass_manager.hpp"
#include "synth/script.hpp"

namespace lsml::synth {

/// The unified optimization request: script, budgets, verify, seed.
/// Construct one, hand it to a ScriptSearch (or install it as the process
/// default) — nothing else decides how circuits get optimized.
struct OptRequest {
  /// Preset name or pass script text.
  std::string script = "fast";
  /// The PassManager contract the run honors.
  SynthOptions options;

  /// The script this request names; throws std::invalid_argument on
  /// unparseable text (validate() reports the same).
  [[nodiscard]] Script resolved_script() const;
  /// Throws std::invalid_argument with context when `script` is neither a
  /// preset nor valid pass syntax. CLI surfaces call this once and map the
  /// exception to their usage-error exit.
  void validate() const;
  /// Canonical display form: the resolved script's text.
  [[nodiscard]] std::string script_display() const;
  /// Stable digest over resolved behavior: the canonical script's
  /// fingerprint combined with the SynthOptions'. Participates in on-disk
  /// cache keys (suite::ResultCache), so recipe changes require bumping
  /// suite::kResultCacheSchemaVersion.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// What an optimization request produced: the pass-manager result plus
/// the script that ran.
struct OptOutcome {
  SynthResult result;
  Script script;
};

/// The fixed-script optimizer behind every optimization surface.
class ScriptSearch {
 public:
  explicit ScriptSearch(OptRequest request) : request_(std::move(request)) {}

  [[nodiscard]] const OptRequest& request() const { return request_; }

  /// Optimizes under the construction request.
  [[nodiscard]] OptOutcome optimize(const aig::Aig& in) const {
    return optimize(in, request_);
  }
  /// Optimizes under a per-call request (the serve op's per-request
  /// script/budget overrides): one memoized PassManager run.
  [[nodiscard]] OptOutcome optimize(const aig::Aig& in,
                                    const OptRequest& request) const;

 private:
  OptRequest request_;
};

// ------------------------------------------------- process default plumbing
// The one process-wide default optimizer: learn::finish_model and the
// contest driver read the installed optimizer; drivers install theirs
// before spawning workers.

/// Copy of the installed default request.
[[nodiscard]] OptRequest default_opt_request();

/// The installed optimizer. Grab once per task; the pointer stays valid
/// across a concurrent re-install.
[[nodiscard]] std::shared_ptr<const ScriptSearch> default_optimizer();

/// Replaces the process default and returns the previous request. Install
/// before spawning workers; the default itself is not locked against
/// mid-task swaps.
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
