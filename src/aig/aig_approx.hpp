#pragma once
// Team 1's simulation-guided approximation.
//
// When a synthesized AIG exceeds the contest's 5000-node budget, the AIG is
// simulated with random input patterns and the internal node that most
// frequently evaluates to a constant is replaced by that constant (taking
// negation into account). Nodes near the outputs are protected by a depth
// threshold. Repeats until the budget is met. The paper reports ~5%
// accuracy loss when removing 3000-5000 nodes this way (Fig. 7).
//
// Rounds are incremental. The cleaned input is copied once into a mutable
// working graph (fanins, reference counts, fanout lists, unique table).
// Each round simulates the live nodes with one full-width kernel sweep over
// fresh patterns, marks the protected nodes with a breadth-first search of
// `protect_depth` levels from the outputs, picks the node, and propagates
// its constant through the affected fanout only, in id order with
// one-level strash rules; nodes left without references are then swept.
// The result is turned back into an Aig once, at the end.
//
// Byte-identity contract: the result (node numbering, content_hash) and
// the random stream consumed are exactly those of the straightforward
// loop that, every round, rebuilds the whole graph through Aig::and2 with
// the chosen node tied to its constant, calls Aig::cleanup(), and
// re-simulates. aig_approx_test keeps that loop as its oracle.

#include <cstdint>

#include "aig/aig.hpp"
#include "core/rng.hpp"

namespace lsml::aig {

struct ApproxOptions {
  std::uint32_t node_budget = 5000;
  std::size_t num_patterns = 2048;   ///< random simulation vectors
  std::uint32_t protect_depth = 3;   ///< exclude nodes this close to outputs
};

/// Shrinks `in` below the node budget by constant replacement.
/// Returns the (cleaned-up) approximated AIG; if `in` is already within
/// budget, returns in.cleanup() unchanged. Adds the number of replacement
/// rounds to the lsml_synth_approx_rounds_total counter.
Aig approximate_to_budget(const Aig& in, const ApproxOptions& options,
                          core::Rng& rng);

}  // namespace lsml::aig
