#pragma once
// AIG optimization passes.
//
// Stand-in for the ABC `resyn2`-style cleanup every team ran on their
// synthesized circuits: tree balancing (depth), cut-based rewriting via
// ISOP resynthesis (size), and dangling-node removal. All passes are
// verified to preserve functionality in the test suite. Learners and
// portfolios sequence them through synth::PassManager, which adds scripts,
// budgets, and per-pass stats on top.

#include "aig/aig.hpp"

namespace lsml::aig {

/// Depth-oriented pass: rebuilds maximal AND trees as balanced trees.
Aig balance(const Aig& in);

/// Size-oriented pass: for every node, enumerates k-input cuts, evaluates
/// an ISOP-based resynthesis of the cut function and applies it when the
/// estimated gain (MFFC size minus new cost) is positive. `cut_size` is
/// clamped to [2, 6] (6-leaf cuts fit a 64-bit truth table); larger cuts
/// behave like ABC's refactor, smaller like its rewrite.
Aig rewrite(const Aig& in, int cut_size = 4, int cuts_per_node = 8);

}  // namespace lsml::aig
