#pragma once
// SAT-based combinational equivalence checking (CEC).
//
// cec(a, b) strashes both circuits into one AIG over shared primary
// inputs (each copied once), so logic they share merges for free; if
// every output pair lands on the same literal the circuits are equivalent
// without a solver call. Otherwise the miter output (the OR of the
// per-output XORs) is cut down to its cone and simulated on random
// patterns: a pattern that sets it is the counterexample. Failing that,
// the miter is SAT-swept by the fraig engine (sat/fraig.hpp), which
// proves internal equivalences bottom-up, and what is left of its output
// is solved on the same CDCL solver. UNSAT proves equivalence; SAT yields
// a concrete counterexample cube; a blown budget returns kUndecided —
// never a wrong verdict. This is the
// exactness the paper trades away, made checkable: any optimized circuit
// can be certified against the raw learner output it came from.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "data/dataset.hpp"
#include "sat/solver.hpp"

namespace lsml::sat {

enum class CecStatus { kEquivalent, kNotEquivalent, kUndecided };

/// Resource limits on the whole check (sweep probes plus the final solve
/// together); 0 = unlimited.
struct CecLimits {
  std::int64_t conflict_budget = 100000;
  std::int64_t propagation_budget = 0;
};

struct CecResult {
  CecStatus status = CecStatus::kUndecided;
  /// kNotEquivalent only: one value per PI on which the circuits differ.
  std::vector<std::uint8_t> counterexample;
  /// kNotEquivalent only: index of an output the cube distinguishes.
  std::size_t failing_output = 0;
  /// Solver effort of the whole check: the shared solver's cumulative
  /// stats over the sweep probes and the final solve (all zero when
  /// strashing or simulation alone decides).
  SolverStats solver_stats;
};

/// Checks functional equivalence of `a` and `b`. Both circuits must have
/// the same number of primary inputs and outputs (throws
/// std::invalid_argument otherwise — a shape mismatch is a usage error,
/// not an inequivalence).
CecResult cec(const aig::Aig& a, const aig::Aig& b,
              const CecLimits& limits = {});

/// Converts a CEC counterexample into a one-row, Dataset-compatible
/// minterm labeled by `oracle`'s output on that cube, so a NOT_EQUIVALENT
/// verdict replays directly through the existing simulation paths
/// (Aig::simulate over Dataset::column_ptrs).
data::Dataset cex_to_minterm(const std::vector<std::uint8_t>& counterexample,
                             const aig::Aig& oracle, std::size_t output = 0);

/// Appends the counterexample row (labeled by `oracle`) to `out`, growing
/// a replayable cube dump across repeated CEC calls. `out` must be empty
/// or have matching input count.
void append_cex_minterm(const std::vector<std::uint8_t>& counterexample,
                        const aig::Aig& oracle, data::Dataset* out,
                        std::size_t output = 0);

}  // namespace lsml::sat
