#include "sat/cec.hpp"

#include <bit>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bits.hpp"
#include "core/rng.hpp"
#include "sat/cnf.hpp"
#include "sat/fraig.hpp"

namespace lsml::sat {

namespace {

/// Seeds the simulation patterns, so a verdict and its counterexample
/// depend on the two circuits and the limits alone.
constexpr std::uint64_t kSweepSeed = 0x5eedcec5eedcec01ULL;

/// An input cube on which the single output of `miter` is one, found by
/// simulating `rows` random patterns, or nullopt if none of them sets it.
std::optional<std::vector<std::uint8_t>> simulated_cex(
    const aig::Aig& miter, std::size_t rows, core::Rng& rng) {
  if (miter.output() == aig::kLitTrue) {
    // Some output pair is complementary: every cube separates them.
    return std::vector<std::uint8_t>(miter.num_pis(), 0);
  }
  std::vector<core::BitVec> columns;
  columns.reserve(miter.num_pis());
  std::vector<const core::BitVec*> ptrs;
  for (std::uint32_t i = 0; i < miter.num_pis(); ++i) {
    columns.emplace_back(rows);
    columns.back().randomize(rng);
  }
  for (const core::BitVec& c : columns) {
    ptrs.push_back(&c);
  }
  const core::BitVec hits = miter.simulate(ptrs)[0];
  for (std::size_t w = 0; w < hits.num_words(); ++w) {
    if (hits.word(w) == 0) {
      continue;
    }
    const std::size_t r =
        w * 64 + static_cast<std::size_t>(std::countr_zero(hits.word(w)));
    std::vector<std::uint8_t> cex(miter.num_pis());
    for (std::uint32_t i = 0; i < miter.num_pis(); ++i) {
      cex[i] = columns[i].get(r) ? std::uint8_t{1} : std::uint8_t{0};
    }
    return cex;
  }
  return std::nullopt;
}

}  // namespace

CecResult cec(const aig::Aig& a, const aig::Aig& b, const CecLimits& limits) {
  if (a.num_pis() != b.num_pis()) {
    throw std::invalid_argument("sat::cec: PI counts differ (" +
                                std::to_string(a.num_pis()) + " vs " +
                                std::to_string(b.num_pis()) + ")");
  }
  if (a.num_outputs() != b.num_outputs()) {
    throw std::invalid_argument("sat::cec: output counts differ (" +
                                std::to_string(a.num_outputs()) + " vs " +
                                std::to_string(b.num_outputs()) + ")");
  }
  // Strash both circuits over shared PIs: logic they have in common
  // merges for free, and identical outputs need no solver at all.
  aig::Aig joined(a.num_pis());
  const std::vector<aig::Lit> outs_a = aig::append_aig_outputs(joined, a);
  const std::vector<aig::Lit> outs_b = aig::append_aig_outputs(joined, b);
  CecResult result;
  if (outs_a == outs_b) {
    result.status = CecStatus::kEquivalent;
    return result;
  }
  // The miter output: some output pair differs. Only its cone is kept, so
  // logic no output uses is neither simulated nor probed.
  aig::Lit mismatch = aig::kLitFalse;
  for (std::size_t i = 0; i < outs_a.size(); ++i) {
    mismatch = joined.or2(mismatch, joined.xor2(outs_a[i], outs_b[i]));
  }
  joined.add_output(mismatch);
  const aig::Aig miter = joined.cleanup();

  const FraigOptions options;
  core::Rng rng(kSweepSeed);
  // Most differing pairs differ on some random pattern; such a row is a
  // counterexample no probe or solve has to find.
  if (auto cex = simulated_cex(miter, options.sim_patterns, rng)) {
    result.counterexample = std::move(*cex);
  } else {
    // SAT-sweep the miter, then solve what is left of its output, all on
    // one solver under one whole-call budget.
    Budget cap;
    cap.max_conflicts = limits.conflict_budget;
    cap.max_propagations = limits.propagation_budget;
    Solver solver;
    aig::Aig swept(miter.num_pis(), aig::Aig::StrashMode::kTwoLevel);
    SweepResult sweep_result = sweep(miter, options, rng, solver, swept, cap);
    const aig::Lit target = sweep_result.outputs[0];
    Status status = Status::kUnsat;
    if (target != aig::kLitFalse) {
      Budget budget;
      status = fit_to_cap(&budget, cap, solver.stats().conflicts,
                          solver.stats().propagations)
                   ? solver.solve({sweep_result.cnf.lit(target)}, budget)
                   : Status::kUnknown;
    }
    result.solver_stats = solver.stats();
    if (status == Status::kUnsat) {
      result.status = CecStatus::kEquivalent;
      return result;
    }
    if (status == Status::kUnknown) {
      result.status = CecStatus::kUndecided;
      return result;
    }
    result.counterexample.resize(a.num_pis());
    for (std::uint32_t i = 0; i < a.num_pis(); ++i) {
      result.counterexample[i] =
          solver.model_value(sweep_result.cnf.pi_lit(i)) ? std::uint8_t{1}
                                                         : std::uint8_t{0};
    }
  }
  result.status = CecStatus::kNotEquivalent;
  // Identify a distinguishing output by replaying the cube; a cube that
  // fails to distinguish any output would mean the miter, the simulation,
  // the solver or the encoding is unsound, which must never pass silently.
  const std::vector<bool> va = a.eval_row(result.counterexample);
  const std::vector<bool> vb = b.eval_row(result.counterexample);
  bool found = false;
  for (std::size_t i = 0; i < va.size(); ++i) {
    if (va[i] != vb[i]) {
      result.failing_output = i;
      found = true;
      break;
    }
  }
  if (!found) {
    throw std::logic_error(
        "sat::cec: counterexample does not distinguish the circuits "
        "(solver or encoding bug)");
  }
  return result;
}

data::Dataset cex_to_minterm(const std::vector<std::uint8_t>& counterexample,
                             const aig::Aig& oracle, std::size_t output) {
  data::Dataset row(counterexample.size(), 1);
  for (std::size_t i = 0; i < counterexample.size(); ++i) {
    row.set_input(0, i, counterexample[i] != 0);
  }
  row.set_label(0, oracle.eval_row(counterexample)[output]);
  return row;
}

void append_cex_minterm(const std::vector<std::uint8_t>& counterexample,
                        const aig::Aig& oracle, data::Dataset* out,
                        std::size_t output) {
  data::Dataset row = cex_to_minterm(counterexample, oracle, output);
  if (out->num_rows() == 0) {
    *out = std::move(row);
    return;
  }
  *out = out->merged_with(row);
}

}  // namespace lsml::sat
