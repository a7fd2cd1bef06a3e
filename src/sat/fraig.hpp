#pragma once
// Simulation-guided SAT sweeping (fraiging).
//
// The strongest classical size reduction the synth:: layer offers: random
// 64-way simulation partitions nodes into candidate equivalence classes
// (signatures equal up to complement), and a budgeted CDCL solver refines
// them — UNSAT merges the node onto its class representative, SAT yields
// a counterexample pattern that splits classes, and a blown budget keeps
// the node (never an unsound merge). The output circuit is therefore
// always function-equivalent to the input; sat::cec can certify it.
//
// One sweep engine serves two callers: fraig() runs it on a fresh solver
// and returns the reduced circuit, and sat::cec runs it on its miter,
// under the check's conflict budget, before the final solve on the same
// solver.
//
// Deterministic: (input, options, rng state) fully determine the result.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "core/rng.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

namespace lsml::sat {

struct FraigOptions {
  /// Initial random simulation patterns (rounded up to a multiple of 64).
  std::size_t sim_patterns = 2048;
  /// Conflict budget per SAT probe; 0 = unlimited (exact sweeping).
  std::int64_t conflict_budget = 1000;
  /// Candidate representatives probed per node before giving up, bounding
  /// worst-case SAT effort on large near-equivalence classes.
  std::uint32_t max_pair_probes = 16;
};

struct FraigStats {
  std::uint64_t sat_calls = 0;
  std::uint64_t proved = 0;     ///< UNSAT probes: nodes merged
  std::uint64_t disproved = 0;  ///< SAT probes: counterexamples found
  std::uint64_t undecided = 0;  ///< budget-limited probes: nodes kept
  std::uint32_t cex_patterns = 0;  ///< counterexample rows fed back
  std::uint32_t ands_in = 0;
  std::uint32_t ands_out = 0;
};

/// Sweeps `in` and returns the (cleaned-up) reduced circuit. `rng` seeds
/// the simulation patterns only.
aig::Aig fraig(const aig::Aig& in, const FraigOptions& options,
               core::Rng& rng, FraigStats* stats = nullptr);

/// What sweep() leaves behind.
struct SweepResult {
  /// Each output of the swept circuit, as a literal over the caller's
  /// `out`.
  std::vector<aig::Lit> outputs;
  /// `out` bound to the caller's solver, with every probed cone already
  /// encoded: further queries on `out` reuse the probes' variables and
  /// learned clauses.
  CnfBuilder cnf;
  /// Probe counts; ands_in and ands_out stay zero.
  FraigStats stats;
};

/// The sweep engine. Rebuilds `in` (which must have a PI) node by node
/// into `out` (empty, with in.num_pis() PIs), merging every node that a
/// probe on `solver` proves equal to a candidate. Each probe runs under
/// the tighter of `options.conflict_budget` and what remains of `cap`
/// (counted from entry; 0 fields are unlimited). Once the cap is spent no
/// further probe runs and the remaining nodes are kept unmerged, as after
/// a budget-limited probe.
SweepResult sweep(const aig::Aig& in, const FraigOptions& options,
                  core::Rng& rng, Solver& solver, aig::Aig& out,
                  const Budget& cap);

}  // namespace lsml::sat
