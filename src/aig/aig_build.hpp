#pragma once
// Structural AIG builders for standard functions.
//
// These serve three roles in the reproduction:
//  * exact circuits emitted by standard-function matching (Teams 1 and 7),
//  * aggregation logic for learned ensembles (majority voters, Team 7's
//    3-layer 5-input majority network),
//  * symmetric-function construction from a popcount signature (ex75-79).

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "tt/isop.hpp"
#include "tt/truth_table.hpp"

namespace lsml::aig {

/// Balanced AND tree over `lits` (empty -> constant true).
Lit and_tree(Aig& g, std::vector<Lit> lits);
/// Balanced OR tree over `lits` (empty -> constant false).
Lit or_tree(Aig& g, std::vector<Lit> lits);
/// Balanced XOR tree (empty -> constant false).
Lit xor_tree(Aig& g, std::vector<Lit> lits);

/// Ripple-carry adder; returns sum bits (LSB first, size = max(|a|,|b|)+1).
std::vector<Lit> ripple_adder(Aig& g, const std::vector<Lit>& a,
                              const std::vector<Lit>& b);

/// a > b for unsigned LSB-first words of equal width.
Lit greater_than(Aig& g, const std::vector<Lit>& a, const std::vector<Lit>& b);
/// a >= b.
Lit greater_equal(Aig& g, const std::vector<Lit>& a,
                  const std::vector<Lit>& b);
/// a == b.
Lit equals(Aig& g, const std::vector<Lit>& a, const std::vector<Lit>& b);

/// Binary population count of `lits` (LSB-first result).
std::vector<Lit> popcount(Aig& g, const std::vector<Lit>& lits);

/// popcount(lits) >= k.
Lit threshold_ge(Aig& g, const std::vector<Lit>& lits, std::uint32_t k);

/// Strict majority of an odd number of literals.
Lit majority(Aig& g, const std::vector<Lit>& lits);

/// Team 7's approximation of a 125-input majority: a 3-layer network of
/// 5-input majority gates. `lits.size()` must be 125.
Lit majority125_network(Aig& g, const std::vector<Lit>& lits);

/// Totally symmetric function from its signature: output is signature[c]
/// when exactly c inputs are 1. signature.size() must be lits.size()+1.
Lit symmetric_function(Aig& g, const std::vector<Lit>& lits,
                       const std::vector<bool>& signature);

/// Array multiplier; returns the 2n product bits (LSB first).
std::vector<Lit> multiplier(Aig& g, const std::vector<Lit>& a,
                            const std::vector<Lit>& b);

/// The two-level cover from_truth_table builds for a function: the ISOP of
/// f or of ~f, whichever has the lower sop_gate_cost (f on a tie).
struct ChosenCover {
  std::vector<tt::SmallCube> cubes;
  bool complemented = false;  ///< cubes cover ~f; the built literal is negated
  int cost = 0;               ///< sop_gate_cost(cubes)
};
ChosenCover choose_cover(const tt::TruthTable& f);

/// Builds a truth table (<= 16 vars) over the given leaf literals via ISOP,
/// choosing the cheaper of covering f or ~f (choose_cover).
Lit from_truth_table(Aig& g, const tt::TruthTable& f,
                     const std::vector<Lit>& leaves);

/// Builds a small-cube cover over leaf literals as a two-level AND/OR tree.
Lit from_cover(Aig& g, const std::vector<tt::SmallCube>& cubes,
               const std::vector<Lit>& leaves);

}  // namespace lsml::aig
