#pragma once
// Tseitin encoding of AIGs into CNF.
//
// A CnfBuilder binds one aig::Aig to a sat::Solver: every AND node gets a
// solver variable constrained by the three Tseitin clauses, translated
// lazily and incrementally — the bound AIG may keep growing (the fraig
// sweep encodes its under-construction circuit node by node), because
// node ids are topological and append-only (the
// btor_aig_to_sat_constraints pattern from boolector). A miter needs no
// second builder: sat::cec strashes both circuits into one AIG first.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "sat/solver.hpp"

namespace lsml::sat {

/// Fresh variable t with t <-> (a XOR b); returns the literal of t.
Lit add_xor(Solver& solver, Lit a, Lit b);

class CnfBuilder {
 public:
  /// Binds `g` to `solver`, creating one variable per primary input plus
  /// the constant-false variable. `g` must outlive the builder; its PI
  /// count must not change (appending AND nodes is fine).
  CnfBuilder(Solver& solver, const aig::Aig& g);

  /// Solver literal computing AIG literal `l`, encoding any AND nodes in
  /// its cone that have not been translated yet.
  Lit lit(aig::Lit l);

  /// Solver literal of primary input `i`.
  [[nodiscard]] Lit pi_lit(std::uint32_t i) const {
    return make_lit(pi_vars_[i], false);
  }

  [[nodiscard]] Solver& solver() { return solver_; }

 private:
  Solver& solver_;
  const aig::Aig& aig_;
  std::vector<Var> pi_vars_;
  Var const_var_;                  ///< fixed false
  std::vector<Lit> node_lit_;      ///< aig var -> solver lit (or kUnmapped)
  static constexpr Lit kUnmapped = 0xffffffffu;
};

}  // namespace lsml::sat
