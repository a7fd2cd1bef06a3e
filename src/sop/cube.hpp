#pragma once
// Wide product terms (cubes) and covers over many variables.
//
// Unlike tt::SmallCube (<= 16 vars, used for cut resynthesis), these cubes
// span the full input width of a benchmark (up to hundreds of variables)
// and are the currency of the ESPRESSO-style two-level minimizer.

#include <cstddef>
#include <vector>

#include "core/bits.hpp"
#include "data/dataset.hpp"

namespace lsml::sop {

/// A product term: variable v is a literal iff mask[v] is set; its polarity
/// is value[v] (1 = positive). Unbound variables are don't-cares.
struct Cube {
  core::BitVec mask;
  core::BitVec value;

  Cube() = default;
  Cube(std::size_t num_vars) : mask(num_vars), value(num_vars) {}

  [[nodiscard]] std::size_t num_vars() const { return mask.size(); }
  [[nodiscard]] std::size_t num_literals() const { return mask.count(); }

  /// Minterm cube from a full assignment.
  static Cube minterm(const core::BitVec& row);

  /// True if the cube covers the given full assignment.
  [[nodiscard]] bool covers_row(const core::BitVec& row) const;

  /// True if this cube covers every minterm of `other` (single-direction
  /// containment: this ⊇ other).
  [[nodiscard]] bool contains(const Cube& other) const;

  bool operator==(const Cube& other) const = default;
};

/// A sum of cubes.
using Cover = std::vector<Cube>;

/// True if any cube in the cover covers `row`.
bool cover_covers_row(const Cover& cover, const core::BitVec& row);

/// Evaluates the cover on every row of a dataset (1 = covered).
core::BitVec cover_predict(const Cover& cover, const data::Dataset& ds);

/// Removes duplicate and absorbed cubes (cube contained in another).
void remove_absorbed(Cover& cover);

/// Extracts dataset rows as row-major bit vectors.
std::vector<core::BitVec> dataset_rows(const data::Dataset& ds);

}  // namespace lsml::sop
