#pragma once
// AIG optimization passes.
//
// Stand-in for the ABC `resyn2`-style cleanup every team ran on their
// synthesized circuits: tree balancing (depth), cut-based rewriting via
// ISOP resynthesis (size), and dangling-node removal. All passes are
// verified to preserve functionality in the test suite. Learners and
// portfolios sequence them through synth::PassManager, which adds scripts,
// budgets, and per-pass stats on top.

#include <cstdint>
#include <span>

#include "aig/aig.hpp"

namespace lsml::aig {

/// Depth-oriented pass: rebuilds maximal AND trees as balanced trees.
Aig balance(const Aig& in);

/// Size-oriented pass: for every node, enumerates k-input cuts, evaluates
/// an ISOP-based resynthesis of the cut function and applies it when the
/// estimated gain (MFFC size minus new cost) is positive. `cut_size` is
/// clamped to [2, 6] (6-leaf cuts fit a 64-bit truth table); larger cuts
/// behave like ABC's refactor, smaller like its rewrite.
///
/// The resynthesis of a cut function is memoized per thread by its exact
/// key (leaf count, truth table), so repeated functions cost one lookup.
/// The memo holds a constant number of entries at most (past the cap,
/// results are computed and not remembered) and never changes a decision.
Aig rewrite(const Aig& in, int cut_size = 4, int cuts_per_node = 8);

/// Empties every thread's rewrite memo: each thread drops its table at the
/// start of its next rewrite. Thread-safe; never required for correctness.
void clear_rewrite_memo();

/// Re-expresses `tt`, a function of the sorted leaves `cut` replicated to
/// 64 bits, over `merged`, a sorted superset of at most 6 leaves. The
/// result does not depend on variables at or above merged.size(). Used by
/// the rewriter's cut enumeration; exposed for tests.
std::uint64_t expand_tt(std::uint64_t tt, std::span<const std::uint32_t> cut,
                        std::span<const std::uint32_t> merged);

}  // namespace lsml::aig
