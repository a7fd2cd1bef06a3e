#pragma once
// Declarative optimization scripts for the synth::PassManager.
//
// A Script is a named sequence of passes over an AIG, in the spirit of an
// ABC command line: `"b; rw; b; rw -k 6"` balances, rewrites with 4-input
// cuts, balances again and finishes with a refactor-sized rewrite. Scripts
// are data, not code: they parse from strings, print back canonically, and
// fingerprint stably so cache keys can cover "which pipeline produced this
// circuit". Presets mirror the ABC recipes every contest team leaned on.
//
// Pass vocabulary (aliases in parentheses):
//   c  (cleanup)   drop logic outside the output cones
//   b  (balance)   rebuild AND trees balanced, reducing depth
//   rw (rewrite)   cut-based ISOP resynthesis      [-k cut size, -c cuts/node]
//   rf (refactor)  rewrite with larger cuts        [-k cut size, -c cuts/node]
//   fs (fraig)     SAT sweeping: simulation-guided candidate classes,
//                  budgeted CDCL merge proofs      [-c conflicts/probe,
//                                                   0 = unlimited]
//   approx         simulation-guided constant replacement down to a node
//                  budget [-n budget]; the only pass that may change the
//                  function. approx and fs both consume randomness (fs for
//                  its simulation patterns only — it never changes the
//                  function, and sat::cec can certify that).

#include <cstdint>
#include <string>
#include <vector>

namespace lsml::synth {

enum class PassKind {
  kCleanup,
  kBalance,
  kRewrite,
  kRefactor,
  kFraig,
  kApprox,
};

/// One pass invocation. Zero-valued knobs mean "use the kind's default"
/// (rw: k=4, rf: k=6, both: 8 cuts/node; fs: 1000 conflicts/probe;
/// approx: SynthOptions.node_budget).
struct Pass {
  PassKind kind = PassKind::kCleanup;
  int cut_size = 0;               ///< rw/rf only
  int cuts_per_node = 0;          ///< rw/rf only
  int conflict_budget = 0;        ///< fs only, per SAT probe; -1 = unlimited
                                  ///< (spelled "fs -c 0" in scripts)
  std::uint32_t node_budget = 0;  ///< approx only

  /// Effective cut size after defaulting (rw: 4, rf: 6).
  [[nodiscard]] int effective_cut_size() const;
  [[nodiscard]] int effective_cuts_per_node() const;
  /// Effective fs conflict budget (default 1000; -1 spells "unlimited",
  /// returned as 0 to match sat::FraigOptions).
  [[nodiscard]] std::int64_t effective_conflict_budget() const;

  /// Canonical spelling, e.g. "rw", "rf -k 5", "approx -n 1000". Defaults
  /// are omitted so equal behavior spells (and fingerprints) equal.
  [[nodiscard]] std::string spelling() const;
};

struct Script {
  std::string name;  ///< preset name, or "custom" for parsed scripts
  std::vector<Pass> passes;

  /// Canonical "p1; p2; ..." form; parse(str()) round-trips.
  [[nodiscard]] std::string str() const;

  /// Stable digest of the canonical spelling. Participates in on-disk
  /// cache keys (suite::ResultCache), so changing the spelling of any pass
  /// requires bumping suite::kResultCacheSchemaVersion.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Parses a ';'-separated pass list ("b;rw;b;rw -k 6"). Whitespace is
  /// free. Throws std::invalid_argument with context on unknown passes,
  /// unknown options, or malformed values.
  static Script parse(const std::string& text);

  /// Returns the named preset; throws std::invalid_argument for unknown
  /// names. Presets: "fast", "resyn2", "resyn2fs", "compress2max".
  static Script preset(const std::string& name);
  static std::vector<std::string> preset_names();

  /// Preset lookup first, then parse: what CLI surfaces accept.
  static Script named_or_parse(const std::string& text);
};

}  // namespace lsml::synth
