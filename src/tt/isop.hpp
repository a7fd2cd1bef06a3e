#pragma once
// Irredundant sum-of-products computation (Minato-Morreale ISOP).
//
// Given an incompletely specified function as (onset, careset don't-care
// upper bound), produces a cube cover F with on <= F <= on|dc that is
// irredundant by construction. This is the standard way to resynthesize a
// small cut or LUT into two-level logic before mapping it to AIG gates.
//
// The recursion runs on raw 64-bit word spans in one arena per call, sized
// exactly from the variable count. A table over the variables below the
// recursion variable is only as wide as they need: a cofactor on a
// variable >= 6 is a pointer to half the words, one on a lower variable a
// mask-and-shift inside one word, and a table below 6 variables is one
// word with the function replicated across all 64 bits.
//
// Identical-cover contract: the cover is the one the textbook recursion
// over whole TruthTables gives, cube for cube and in the same order (check
// on == 0, then upper == 1; split on the highest variable either bound
// depends on; recurse on !v, v, then the rest). ISOP is not NPN-invariant,
// so a different but equally valid cover would change every circuit built
// from it; tt_test keeps the TruthTable recursion as the oracle.

#include <vector>

#include "tt/truth_table.hpp"

namespace lsml::tt {

/// Computes an irredundant SOP for any f with on <= f <= on | dc.
/// `on` and `dc` must be disjoint is NOT required (dc is treated as
/// "additional allowed minterms"); both must have the same variable count.
std::vector<SmallCube> isop(const TruthTable& on, const TruthTable& dc);

/// Convenience: ISOP of a completely specified function.
std::vector<SmallCube> isop(const TruthTable& f);

/// Number of AND2 gates of the naive AND/OR tree realization of a cover
/// (literals-1 per cube plus cubes-1 for the OR). Useful as a cost proxy.
int sop_gate_cost(const std::vector<SmallCube>& cubes);

}  // namespace lsml::tt
