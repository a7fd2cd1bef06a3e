// The sat:: subsystem: CDCL solver core on hand-built CNFs, CNF encoding,
// SAT-based equivalence checking with counterexample replay (its verdicts
// checked against exhaustive simulation, its budget against the whole
// call), and the simulation-guided fraig pass (pinned by golden hashes) —
// including the acceptance properties that `fs` is SAT-verified
// function-preserving on 200 random AIGs and that `resyn2fs` never loses
// to `resyn2`.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_build.hpp"
#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "core/bits.hpp"
#include "core/rng.hpp"
#include "data/dataset.hpp"
#include "obs/registry.hpp"
#include "sat/cec.hpp"
#include "sat/cnf.hpp"
#include "sat/fraig.hpp"
#include "sat/solver.hpp"
#include "portfolio/team.hpp"
#include "suite/result_cache.hpp"
#include "synth/pass_manager.hpp"
#include "synth/script.hpp"
#include "synth/script_search.hpp"

namespace lsml {
namespace {

using sat::CecStatus;
using sat::Lit;
using sat::Solver;
using sat::Status;
using sat::Var;
using sat::make_lit;

Lit pos(Var v) { return make_lit(v, false); }
Lit neg(Var v) { return make_lit(v, true); }

// ------------------------------------------------------------ solver core

TEST(Solver, UnitPropagationChain) {
  // x0, x0->x1, x1->x2, ..., x18->x19: one long implication chain that
  // must resolve by propagation alone (zero decisions).
  Solver s;
  constexpr int kChain = 20;
  for (int i = 0; i < kChain; ++i) {
    s.new_var();
  }
  ASSERT_TRUE(s.add_clause({pos(0)}));
  for (Var v = 0; v + 1 < kChain; ++v) {
    ASSERT_TRUE(s.add_clause({neg(v), pos(v + 1)}));
  }
  ASSERT_EQ(s.solve(), Status::kSat);
  for (Var v = 0; v < kChain; ++v) {
    EXPECT_TRUE(s.model_value(pos(v))) << "var " << v;
  }
  EXPECT_EQ(s.stats().decisions, 0u);

  // Closing the chain against x19 is a root-level contradiction.
  EXPECT_FALSE(s.add_clause({neg(kChain - 1)}));
  EXPECT_FALSE(s.okay());
  EXPECT_EQ(s.solve(), Status::kUnsat);
}

std::vector<std::vector<Lit>> pigeonhole(Solver* s, int pigeons, int holes) {
  // Var p*holes + h: pigeon p sits in hole h.
  std::vector<std::vector<Lit>> clauses;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> somewhere;
    for (int h = 0; h < holes; ++h) {
      somewhere.push_back(pos(static_cast<Var>(p * holes + h)));
    }
    clauses.push_back(somewhere);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        clauses.push_back({neg(static_cast<Var>(p1 * holes + h)),
                           neg(static_cast<Var>(p2 * holes + h))});
      }
    }
  }
  while (s->num_vars() < static_cast<std::uint32_t>(pigeons * holes)) {
    s->new_var();
  }
  return clauses;
}

TEST(Solver, Pigeonhole3IsUnsat) {
  // 4 pigeons, 3 holes: UNSAT, and only provable through real conflict
  // analysis (no unit propagation shortcut exists from the start).
  Solver s;
  for (const auto& clause : pigeonhole(&s, 4, 3)) {
    s.add_clause(clause);
  }
  EXPECT_EQ(s.solve(), Status::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Solver, Pigeonhole3FitsWithEqualHoles) {
  Solver s;
  for (const auto& clause : pigeonhole(&s, 3, 3)) {
    ASSERT_TRUE(s.add_clause(clause));
  }
  ASSERT_EQ(s.solve(), Status::kSat);
  // The model must place each pigeon in exactly one distinct hole.
  int placed = 0;
  for (int h = 0; h < 3; ++h) {
    int in_hole = 0;
    for (int p = 0; p < 3; ++p) {
      in_hole += s.model_value(pos(static_cast<Var>(p * 3 + h))) ? 1 : 0;
    }
    EXPECT_LE(in_hole, 1);
    placed += in_hole;
  }
  EXPECT_EQ(placed, 3);
}

TEST(Solver, AssumptionIncrementality) {
  // One solver, many queries: assumptions never leave permanent marks,
  // and clauses added between queries take effect.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a), pos(b), pos(c)}));

  EXPECT_EQ(s.solve({neg(a), neg(b)}), Status::kSat);
  EXPECT_TRUE(s.model_value(pos(c)));
  EXPECT_EQ(s.solve({neg(a), neg(b), neg(c)}), Status::kUnsat);
  // The UNSAT answer was relative to the assumptions only.
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve(), Status::kSat);

  ASSERT_TRUE(s.add_clause({neg(c)}));
  EXPECT_EQ(s.solve({neg(a), neg(b)}), Status::kUnsat);
  EXPECT_EQ(s.solve({neg(a)}), Status::kSat);
  EXPECT_TRUE(s.model_value(pos(b)));
  // Contradictory assumptions about one variable short-circuit cleanly.
  EXPECT_EQ(s.solve({pos(a), neg(a)}), Status::kUnsat);
}

TEST(Solver, ConflictBudgetReturnsUnknownNeverWrong) {
  Solver s;
  for (const auto& clause : pigeonhole(&s, 6, 5)) {
    s.add_clause(clause);
  }
  sat::Budget tiny;
  tiny.max_conflicts = 1;
  EXPECT_EQ(s.solve({}, tiny), Status::kUnknown);
  // The same solver still reaches the exact verdict without the budget.
  EXPECT_EQ(s.solve(), Status::kUnsat);
}

TEST(Solver, RandomCnfAgreesWithBruteForce) {
  // Fuzz soundness + completeness: 400 random small CNFs checked against
  // exhaustive enumeration; SAT answers must come with a real model.
  core::Rng rng(0xc0ffee);
  for (int instance = 0; instance < 400; ++instance) {
    const int num_vars = 3 + static_cast<int>(rng.below(8));
    const int num_clauses = 4 + static_cast<int>(rng.below(36));
    std::vector<std::vector<Lit>> clauses;
    for (int ci = 0; ci < num_clauses; ++ci) {
      std::vector<Lit> clause;
      const int len = 1 + static_cast<int>(rng.below(3));
      for (int k = 0; k < len; ++k) {
        clause.push_back(make_lit(static_cast<Var>(rng.below(num_vars)),
                                  rng.flip(0.5)));
      }
      clauses.push_back(clause);
    }
    bool brute_sat = false;
    for (int m = 0; m < (1 << num_vars) && !brute_sat; ++m) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (const Lit l : clause) {
          any = any || (((m >> sat::lit_var(l)) & 1) !=
                        static_cast<int>(sat::lit_sign(l)));
        }
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    Solver s;
    for (int v = 0; v < num_vars; ++v) {
      s.new_var();
    }
    for (const auto& clause : clauses) {
      s.add_clause(clause);
    }
    const Status verdict = s.solve();
    ASSERT_EQ(verdict == Status::kSat, brute_sat) << "instance " << instance;
    if (verdict == Status::kSat) {
      for (const auto& clause : clauses) {
        bool any = false;
        for (const Lit l : clause) {
          any = any || s.model_value(l);
        }
        ASSERT_TRUE(any) << "bogus model, instance " << instance;
      }
    }
  }
}

// ------------------------------------------------------------ cnf gadgets

TEST(Cnf, XorGadgetBehaves) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Lit x = sat::add_xor(s, pos(a), pos(b));
  // XOR forced true requires a != b.
  ASSERT_EQ(s.solve({x, pos(a)}), Status::kSat);
  EXPECT_FALSE(s.model_value(pos(b)));
  ASSERT_EQ(s.solve({sat::lit_not(x), pos(a)}), Status::kSat);
  EXPECT_TRUE(s.model_value(pos(b)));
  EXPECT_EQ(s.solve({x, pos(a), pos(b)}), Status::kUnsat);
}

// --------------------------------------------------------------------- cec

aig::Aig small_cone(core::Rng& rng, std::uint32_t inputs = 0) {
  aig::ConeOptions cone;
  cone.num_inputs = inputs != 0 ? inputs : 5 + static_cast<std::uint32_t>(
                                               rng.below(4));
  cone.num_ands = 40 + static_cast<std::uint32_t>(rng.below(40));
  cone.max_tries = 2;  // balance quality is irrelevant here
  cone.flavor = rng.flip(0.5) ? aig::ConeFlavor::kXorRich
                              : aig::ConeFlavor::kRandom;
  return aig::random_cone(cone, rng);
}

TEST(Cec, EquivalentCopyAndFlippedOutputOn200RandomAigs) {
  core::Rng rng(2020);
  for (int i = 0; i < 200; ++i) {
    const aig::Aig g = small_cone(rng);
    const aig::Aig copy = g;  // deep copy: Aig is a value type
    EXPECT_EQ(sat::cec(g, copy).status, CecStatus::kEquivalent)
        << "iteration " << i;

    aig::Aig flipped = g;
    flipped.set_output(0, aig::lit_not(flipped.output(0)));
    const sat::CecResult verdict = sat::cec(g, flipped);
    ASSERT_EQ(verdict.status, CecStatus::kNotEquivalent) << "iteration " << i;
    // The counterexample must actually distinguish the circuits.
    ASSERT_EQ(verdict.counterexample.size(), g.num_pis());
    EXPECT_NE(g.eval_row(verdict.counterexample)[verdict.failing_output],
              flipped.eval_row(verdict.counterexample)[verdict.failing_output]);
  }
}

TEST(Cec, ShapeMismatchesThrow) {
  const aig::Aig two_pis(2);
  const aig::Aig three_pis(3);
  EXPECT_THROW((void)sat::cec(two_pis, three_pis), std::invalid_argument);
  aig::Aig with_output(2);
  with_output.add_output(with_output.pi(0));
  aig::Aig no_output(2);
  EXPECT_THROW((void)sat::cec(with_output, no_output), std::invalid_argument);
}

TEST(Cec, UndecidedWithinTinyBudget) {
  // Pairs random simulation cannot settle, under a 1-conflict budget:
  // 8-bit a*b against b*a (equivalent), and a*b against a copy whose
  // low product bit differs on a single cube of the 16 inputs. The
  // verdict must degrade to kUndecided, never guess.
  aig::Aig ab(16);
  aig::Aig ba(16);
  std::vector<aig::Lit> x;
  std::vector<aig::Lit> y;
  for (std::uint32_t i = 0; i < 8; ++i) {
    x.push_back(ab.pi(i));
    y.push_back(ab.pi(8 + i));
  }
  for (const aig::Lit l : aig::multiplier(ab, x, y)) {
    ab.add_output(l);
  }
  for (const aig::Lit l : aig::multiplier(ba, y, x)) {
    ba.add_output(l);
  }
  aig::Aig one_cube = ba;
  std::vector<aig::Lit> pis;
  for (std::uint32_t i = 0; i < 16; ++i) {
    pis.push_back(one_cube.pi(i));
  }
  one_cube.set_output(0, one_cube.xor2(one_cube.output(0),
                                       aig::and_tree(one_cube, pis)));
  sat::CecLimits limits;
  limits.conflict_budget = 1;
  const sat::CecResult same = sat::cec(ab, ba, limits);
  EXPECT_NE(same.status, CecStatus::kNotEquivalent);
  EXPECT_LE(same.solver_stats.conflicts, 1u);
  const sat::CecResult differ = sat::cec(ab, one_cube, limits);
  EXPECT_NE(differ.status, CecStatus::kEquivalent);
  EXPECT_LE(differ.solver_stats.conflicts, 1u);
}

TEST(Cec, CexToMintermReplaysThroughSimulation) {
  // One fixed oracle, twenty differently-mutated copies: every
  // NOT_EQUIVALENT verdict appends one labeled minterm to a shared dump,
  // and the oracle must agree with *every* dumped row under the existing
  // packed-simulation path — the dump is replayable training data.
  core::Rng rng(77);
  const aig::Aig g = small_cone(rng, 6);
  data::Dataset dump;
  int found = 0;
  for (int i = 0; i < 20; ++i) {
    aig::Aig mutated = g;
    const std::uint32_t j = static_cast<std::uint32_t>(rng.below(6));
    std::uint32_t k = static_cast<std::uint32_t>(rng.below(6));
    k = k == j ? (k + 1) % 6 : k;
    const aig::Lit term = mutated.and2(mutated.pi(j), mutated.pi(k));
    mutated.set_output(0, mutated.xor2(mutated.output(0), term));
    const sat::CecResult verdict = sat::cec(g, mutated);
    ASSERT_EQ(verdict.status, CecStatus::kNotEquivalent);

    // One-row conversion: inputs are the cube, the label is the oracle's
    // value on it.
    const data::Dataset row = sat::cex_to_minterm(verdict.counterexample, g);
    ASSERT_EQ(row.num_rows(), 1u);
    ASSERT_EQ(row.num_inputs(), g.num_pis());
    EXPECT_EQ(row.label(0), g.eval_row(verdict.counterexample)[0]);

    sat::append_cex_minterm(verdict.counterexample, g, &dump);
    ++found;
    ASSERT_EQ(dump.num_rows(), static_cast<std::size_t>(found));

    // The mutated circuit disagrees with the oracle's label on its own
    // counterexample row by construction.
    const auto bad = mutated.simulate(dump.column_ptrs());
    EXPECT_NE(bad[0].get(dump.num_rows() - 1), dump.label(found - 1));
  }
  const auto sim = g.simulate(dump.column_ptrs());
  EXPECT_EQ(data::accuracy(sim[0], dump.labels()), 1.0);
}

TEST(Cec, ConstantAndInputOnlyMiters) {
  // Miters whose output strashes to a constant or to a primary input:
  // nothing to sweep, yet the verdict and the counterexample hold.
  aig::Aig zero(0);
  zero.add_output(aig::kLitFalse);
  aig::Aig one(0);
  one.add_output(aig::kLitTrue);
  EXPECT_EQ(sat::cec(zero, zero).status, CecStatus::kEquivalent);
  const sat::CecResult constants = sat::cec(zero, one);
  EXPECT_EQ(constants.status, CecStatus::kNotEquivalent);
  EXPECT_TRUE(constants.counterexample.empty());

  aig::Aig input(2);
  input.add_output(input.pi(1));
  aig::Aig never(2);
  never.add_output(aig::kLitFalse);
  const sat::CecResult r = sat::cec(input, never);
  ASSERT_EQ(r.status, CecStatus::kNotEquivalent);
  EXPECT_EQ(r.counterexample[1], 1);
}

// The check's conflict budget covers the sweep probes and the final solve
// together, and the reported stats are the whole call's.
TEST(Cec, ConflictBudgetBoundsTheWholeCall) {
  struct Pair {
    std::string name;
    aig::Aig a;
    aig::Aig b;
    bool equivalent;
  };
  std::vector<Pair> pairs;
  core::Rng rng(5);
  aig::ConeOptions cone;
  cone.num_inputs = 12;
  cone.num_ands = 500;
  cone.max_tries = 1;
  for (int i = 0; i < 3; ++i) {
    aig::Aig a = aig::random_cone(cone, rng);
    aig::Aig b = aig::random_cone(cone, rng);
    pairs.push_back({"distinct " + std::to_string(i), a, b, false});
  }
  // a*b against b*a: commutativity of two array multipliers.
  aig::Aig ab(12);
  aig::Aig ba(12);
  std::vector<aig::Lit> x;
  std::vector<aig::Lit> y;
  for (std::uint32_t i = 0; i < 6; ++i) {
    x.push_back(ab.pi(i));
    y.push_back(ab.pi(6 + i));
  }
  for (const aig::Lit l : aig::multiplier(ab, x, y)) {
    ab.add_output(l);
  }
  for (const aig::Lit l : aig::multiplier(ba, y, x)) {
    ba.add_output(l);
  }
  pairs.push_back({"multiplier", ab, ba, true});
  // A cone against its resyn2 rewrite.
  cone.num_inputs = 16;
  cone.num_ands = 700;
  cone.flavor = aig::ConeFlavor::kArith;
  const aig::Aig raw = aig::random_cone(cone, rng);
  synth::SynthOptions options;
  options.max_rounds = 1;
  const aig::Aig rewritten = synth::PassManager(options)
                                 .run(raw, synth::Script::preset("resyn2"))
                                 .circuit;
  pairs.push_back({"resyn2", raw, rewritten, true});

  // Every conflict any solve spends lands in this process-wide counter, so
  // its delta over one call is what the call really spent.
  const obs::Counter& conflicts =
      obs::Registry::instance().counter("lsml_sat_conflicts_total");
  for (const std::int64_t budget : {1, 10, 100, 1000}) {
    for (const Pair& p : pairs) {
      SCOPED_TRACE(p.name + ", budget " + std::to_string(budget));
      const std::int64_t before = conflicts.load();
      const sat::CecResult r = sat::cec(p.a, p.b, {budget, 0});
      EXPECT_EQ(static_cast<std::int64_t>(r.solver_stats.conflicts),
                conflicts.load() - before);
      EXPECT_LE(r.solver_stats.conflicts, static_cast<std::uint64_t>(budget));
      if (p.equivalent) {
        EXPECT_NE(r.status, CecStatus::kNotEquivalent);
      } else {
        // Random simulation separates these before any probe can spend
        // the budget, so even the tightest budget gets the answer.
        ASSERT_EQ(r.status, CecStatus::kNotEquivalent);
        EXPECT_NE(p.a.eval_row(r.counterexample)[r.failing_output],
                  p.b.eval_row(r.counterexample)[r.failing_output]);
      }
    }
  }
  for (const Pair& p : pairs) {
    EXPECT_EQ(sat::cec(p.a, p.b, {0, 0}).status,
              p.equivalent ? CecStatus::kEquivalent
                           : CecStatus::kNotEquivalent)
        << p.name;
  }
}

// ------------------------------------ cec against exhaustive simulation

/// Every output's value on all 2^n input rows.
std::vector<core::BitVec> truth_tables(const aig::Aig& g) {
  const std::size_t rows = std::size_t{1} << g.num_pis();
  std::vector<core::BitVec> columns(g.num_pis(), core::BitVec(rows));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::uint32_t i = 0; i < g.num_pis(); ++i) {
      columns[i].set(r, ((r >> i) & 1U) != 0);
    }
  }
  std::vector<const core::BitVec*> ptrs;
  for (const core::BitVec& c : columns) {
    ptrs.push_back(&c);
  }
  return g.simulate(ptrs);
}

/// A copy of `g` whose AND node `target` has one fanin complemented.
aig::Aig complement_fanin(const aig::Aig& g, std::uint32_t target,
                          bool second) {
  aig::Aig out(g.num_pis());
  std::vector<aig::Lit> map(g.num_nodes(), aig::kLitFalse);
  for (std::uint32_t i = 0; i < g.num_pis(); ++i) {
    map[i + 1] = out.pi(i);
  }
  const auto mapped = [&](aig::Lit l) {
    return aig::lit_notc(map[aig::lit_var(l)], aig::lit_compl(l));
  };
  for (std::uint32_t v = g.num_pis() + 1; v < g.num_nodes(); ++v) {
    aig::Lit f0 = mapped(g.fanin0(v));
    aig::Lit f1 = mapped(g.fanin1(v));
    if (v == target) {
      (second ? f1 : f0) = aig::lit_not(second ? f1 : f0);
    }
    map[v] = out.and2(f0, f1);
  }
  for (const aig::Lit o : g.outputs()) {
    out.add_output(mapped(o));
  }
  return out;
}

/// A random cone of up to 16 inputs. Every other draw gains outputs: a
/// second, independent cone over the same inputs (so a mutation can leave
/// output 0 untouched) and internal nodes of the first.
aig::Aig property_cone(core::Rng& rng) {
  constexpr aig::ConeFlavor kFlavors[] = {
      aig::ConeFlavor::kRandom, aig::ConeFlavor::kXorRich,
      aig::ConeFlavor::kArith};
  aig::ConeOptions cone;
  cone.num_inputs = 4 + static_cast<std::uint32_t>(rng.below(13));
  cone.num_ands = 30 + static_cast<std::uint32_t>(rng.below(250));
  cone.flavor = kFlavors[rng.below(3)];
  cone.max_tries = 1;
  aig::Aig g = aig::random_cone(cone, rng).cleanup();
  if (g.num_ands() == 0 || !rng.flip(0.5)) {
    return g;
  }
  const std::uint32_t first_ands = g.num_ands();
  cone.num_ands = 20 + static_cast<std::uint32_t>(rng.below(80));
  g.add_output(aig::append_aig(g, aig::random_cone(cone, rng)));
  const auto extra = 1 + rng.below(2);
  for (std::uint64_t k = 0; k < extra; ++k) {
    const auto var = g.num_pis() + 1 +
                     static_cast<std::uint32_t>(rng.below(first_ands));
    g.add_output(aig::make_lit(var, rng.flip(0.5)));
  }
  return g.cleanup();
}

TEST(Cec, VerdictMatchesExhaustiveSimulation) {
  const char* const kExactScripts[] = {"b", "rw", "rf", "fs", "resyn2fs"};
  synth::SynthOptions options;
  options.max_rounds = 1;
  const synth::PassManager manager(options);
  core::Rng rng(2021);
  int equivalent = 0;
  int inequivalent = 0;
  for (int i = 0; i < 30; ++i) {
    const aig::Aig g = property_cone(rng);
    const std::vector<core::BitVec> expected = truth_tables(g);
    std::vector<std::pair<std::string, aig::Aig>> others;
    for (const char* script : kExactScripts) {
      others.emplace_back(
          script,
          manager.run(g, synth::Script::named_or_parse(script)).circuit);
    }
    if (g.num_ands() > 0) {
      for (const bool second : {false, true}) {
        const auto target = g.num_pis() + 1 +
                            static_cast<std::uint32_t>(
                                rng.below(g.num_ands()));
        others.emplace_back("complemented fanin",
                            complement_fanin(g, target, second));
      }
    }
    for (const auto& [name, h] : others) {
      SCOPED_TRACE("cone " + std::to_string(i) + ", " + name);
      const bool same = truth_tables(h) == expected;
      const sat::CecResult r = sat::cec(g, h, {0, 0});
      ASSERT_EQ(r.status, same ? CecStatus::kEquivalent
                               : CecStatus::kNotEquivalent);
      if (same) {
        ++equivalent;
        continue;
      }
      ++inequivalent;
      ASSERT_EQ(r.counterexample.size(), g.num_pis());
      EXPECT_NE(g.eval_row(r.counterexample)[r.failing_output],
                h.eval_row(r.counterexample)[r.failing_output]);
    }
  }
  // The table must exercise both verdicts.
  EXPECT_GE(equivalent, 150);
  EXPECT_GT(inequivalent, 20);
}

TEST(Cec, StructurallyEqualPairsNeedNoSolve) {
  obs::Counter& solves =
      obs::Registry::instance().counter("lsml_sat_solves_total");
  core::Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const aig::Aig g = property_cone(rng);
    // Rebuilt through an AIGER round trip: a second construction that
    // strashes to the same nodes.
    std::stringstream text;
    aig::write_aag(g, text);
    const aig::Aig rebuilt = aig::read_aag(text);
    const std::int64_t before = solves.load();
    const sat::CecResult self = sat::cec(g, g);
    const sat::CecResult copy = sat::cec(g, rebuilt);
    EXPECT_EQ(solves.load(), before) << "cone " << i;
    EXPECT_EQ(self.status, CecStatus::kEquivalent);
    EXPECT_EQ(copy.status, CecStatus::kEquivalent);
    EXPECT_EQ(copy.solver_stats.conflicts, 0u);
  }
}

TEST(Cec, ManyOutputAdderAgainstItsRewrite) {
  // A 64-bit adder has 65 outputs; every output pair lands in the one
  // miter, and a single broken output is named in the verdict.
  aig::Aig adder(128);
  std::vector<aig::Lit> x;
  std::vector<aig::Lit> y;
  for (std::uint32_t i = 0; i < 64; ++i) {
    x.push_back(adder.pi(i));
    y.push_back(adder.pi(64 + i));
  }
  for (const aig::Lit l : aig::ripple_adder(adder, x, y)) {
    adder.add_output(l);
  }
  ASSERT_EQ(adder.num_outputs(), 65u);
  synth::SynthOptions options;
  options.max_rounds = 1;
  const aig::Aig rewritten = synth::PassManager(options)
                                 .run(adder, synth::Script::preset("resyn2"))
                                 .circuit;
  const sat::CecResult same = sat::cec(adder, rewritten);
  EXPECT_EQ(same.status, CecStatus::kEquivalent);

  // Complement one fanin of the node driving sum bit 40: only outputs
  // 40..64 can change, and the counterexample must separate one of them.
  const aig::Aig broken =
      complement_fanin(rewritten, aig::lit_var(rewritten.output(40)), false);
  const sat::CecResult r = sat::cec(adder, broken);
  ASSERT_EQ(r.status, CecStatus::kNotEquivalent);
  EXPECT_GE(r.failing_output, 40u);
  EXPECT_NE(adder.eval_row(r.counterexample)[r.failing_output],
            broken.eval_row(r.counterexample)[r.failing_output]);
}

TEST(Cec, DanglingLogicIsNeitherSimulatedNorProbed) {
  // An uncleaned circuit (as the PassManager verify hook passes in) must
  // cost what its cleaned form costs: logic no output uses is dropped
  // from the miter before simulation and sweeping.
  const obs::Counter& sim_words =
      obs::Registry::instance().counter("lsml_sim_words_total");
  const obs::Counter& solves =
      obs::Registry::instance().counter("lsml_sat_solves_total");
  core::Rng rng(12);
  aig::ConeOptions cone;
  cone.num_inputs = 16;
  cone.num_ands = 400;
  cone.max_tries = 1;
  const aig::Aig g = aig::random_cone(cone, rng).cleanup();
  aig::Aig dirty = g;
  (void)aig::append_aig(dirty, aig::random_cone(cone, rng));
  ASSERT_GT(dirty.num_ands(), g.num_ands() + 100);

  // Inequivalent: decided by the miter's simulation alone.
  const aig::Aig broken =
      complement_fanin(g, aig::lit_var(g.output(0)), false);
  std::int64_t words = sim_words.load();
  std::int64_t calls = solves.load();
  const sat::CecResult clean_verdict = sat::cec(g, broken);
  const std::int64_t clean_words = sim_words.load() - words;
  words = sim_words.load();
  const sat::CecResult dirty_verdict = sat::cec(dirty, broken);
  const std::int64_t dirty_words = sim_words.load() - words;
  ASSERT_EQ(clean_verdict.status, CecStatus::kNotEquivalent);
  ASSERT_EQ(dirty_verdict.status, CecStatus::kNotEquivalent);
  EXPECT_EQ(solves.load(), calls);
  EXPECT_GT(clean_words, 0);
  EXPECT_EQ(dirty_words, clean_words);

  // Equivalent: the dangling cone changes neither verdict nor effort.
  synth::SynthOptions options;
  options.max_rounds = 1;
  const aig::Aig rewritten = synth::PassManager(options)
                                 .run(g, synth::Script::preset("resyn2"))
                                 .circuit;
  calls = solves.load();
  const sat::CecResult clean_eq = sat::cec(g, rewritten);
  const std::int64_t clean_calls = solves.load() - calls;
  calls = solves.load();
  const sat::CecResult dirty_eq = sat::cec(dirty, rewritten);
  const std::int64_t dirty_calls = solves.load() - calls;
  EXPECT_EQ(clean_eq.status, CecStatus::kEquivalent);
  EXPECT_EQ(dirty_eq.status, CecStatus::kEquivalent);
  EXPECT_GT(clean_calls, 0);
  EXPECT_EQ(dirty_calls, clean_calls);
}

// ------------------------------------------------------------------- fraig

TEST(Fraig, MergesStructurallyDistinctEquivalentLogic) {
  // (a&b)&c and a&(b&c) are structurally different cones computing the
  // same function; fraiging must collapse them and the XOR above them to
  // constant false, leaving one cone feeding both outputs.
  aig::Aig g(3);
  const aig::Lit left = g.and2(g.and2(g.pi(0), g.pi(1)), g.pi(2));
  const aig::Lit right = g.and2(g.pi(0), g.and2(g.pi(1), g.pi(2)));
  g.add_output(g.xor2(left, right));  // constant false, invisibly
  g.add_output(left);
  g.add_output(right);

  core::Rng rng(1);
  sat::FraigStats stats;
  const aig::Aig swept = sat::fraig(g, sat::FraigOptions{}, rng, &stats);
  EXPECT_EQ(sat::cec(g, swept, {0, 0}).status, CecStatus::kEquivalent);
  EXPECT_EQ(swept.output(0), aig::kLitFalse);
  EXPECT_EQ(swept.output(1), swept.output(2));
  EXPECT_LT(swept.num_ands(), g.cone_size());
  EXPECT_GT(stats.proved, 0u);
}

TEST(Fraig, FsPassIsSatVerifiedFunctionPreservingOn200RandomAigs) {
  // The acceptance property: the `fs` pass, run exactly as the pass
  // manager runs it, is certified function-preserving by an unlimited-
  // budget cec on 200 random AIGs — and never grows the circuit.
  core::Rng rng(42);
  const synth::Script fs = synth::Script::parse("fs");
  synth::SynthOptions options;
  options.max_rounds = 1;
  const synth::PassManager manager(options);
  std::uint64_t merged_total = 0;
  for (int i = 0; i < 200; ++i) {
    const aig::Aig g = small_cone(rng);
    const synth::SynthResult result = manager.run(g, fs);
    ASSERT_EQ(sat::cec(g, result.circuit, {0, 0}).status,
              CecStatus::kEquivalent)
        << "fs broke the function on iteration " << i;
    EXPECT_LE(result.circuit.num_ands(), g.cleanup().num_ands());
    merged_total += g.cleanup().num_ands() - result.circuit.num_ands();
  }
  // Across 200 random cones, sweeping must actually find merges.
  EXPECT_GT(merged_total, 0u);
}

TEST(Fraig, DeterministicGivenSeed) {
  core::Rng cone_rng(9);
  const aig::Aig g = small_cone(cone_rng, 8);
  core::Rng r1(123);
  core::Rng r2(123);
  sat::FraigOptions options;
  const aig::Aig a = sat::fraig(g, options, r1);
  const aig::Aig b = sat::fraig(g, options, r2);
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

TEST(Fraig, GoldenOutputsAndStatsOnFixedCones) {
  // Pins fraig() byte for byte: the swept circuit's content_hash and every
  // FraigStats field on three fixed cones. The options reach every branch
  // of the sweep: merges, counterexample refinement (few initial patterns)
  // and budget-limited probes (a tiny per-probe budget).
  struct Case {
    aig::ConeFlavor flavor;
    std::uint64_t cone_seed;
    sat::FraigOptions options;
    std::uint64_t hash;
    sat::FraigStats stats;
  };
  const Case cases[] = {
      {aig::ConeFlavor::kRandom, 101, {2048, 1000, 16},
       1394914049622445089ULL, {12, 12, 0, 0, 0, 226, 64}},
      {aig::ConeFlavor::kXorRich, 202, {64, 1000, 16},
       8763723571945696378ULL, {77, 13, 64, 0, 64, 341, 318}},
      {aig::ConeFlavor::kArith, 303, {256, 2, 16},
       8221107761309830082ULL, {51, 10, 8, 33, 8, 340, 194}},
  };
  for (const Case& c : cases) {
    core::Rng cone_rng(c.cone_seed);
    aig::ConeOptions cone;
    cone.num_inputs = 16;
    cone.num_ands = 700;
    cone.flavor = c.flavor;
    cone.max_tries = 1;
    const aig::Aig g = aig::random_cone(cone, cone_rng);
    core::Rng rng(7);
    sat::FraigStats stats;
    const aig::Aig swept = sat::fraig(g, c.options, rng, &stats);
    SCOPED_TRACE("cone seed " + std::to_string(c.cone_seed));
    EXPECT_EQ(swept.content_hash(), c.hash);
    EXPECT_EQ(stats.sat_calls, c.stats.sat_calls);
    EXPECT_EQ(stats.proved, c.stats.proved);
    EXPECT_EQ(stats.disproved, c.stats.disproved);
    EXPECT_EQ(stats.undecided, c.stats.undecided);
    EXPECT_EQ(stats.cex_patterns, c.stats.cex_patterns);
    EXPECT_EQ(stats.ands_in, c.stats.ands_in);
    EXPECT_EQ(stats.ands_out, c.stats.ands_out);
  }
}

// --------------------------------------------------- synth:: integration

TEST(Script, FsSpellingAndPresets) {
  EXPECT_EQ(synth::Script::parse("fs").str(), "fs");
  EXPECT_EQ(synth::Script::parse("fraig -c 200").str(), "fs -c 200");
  // The default conflict budget spells (and fingerprints) like bare fs.
  EXPECT_EQ(synth::Script::parse("fs -c 1000").str(), "fs");
  EXPECT_EQ(synth::Script::parse("fs").passes[0].effective_conflict_budget(),
            1000);
  // "fs -c 0" is the canonical unlimited spelling: it round-trips, maps
  // to an unbudgeted fraig, and fingerprints apart from default fs (they
  // produce different circuits, so they must never share memo entries).
  EXPECT_EQ(synth::Script::parse("fs -c 0").str(), "fs -c 0");
  EXPECT_EQ(
      synth::Script::parse("fs -c 0").passes[0].effective_conflict_budget(),
      0);
  EXPECT_NE(synth::Script::parse("fs -c 0").fingerprint(),
            synth::Script::parse("fs").fingerprint());
  EXPECT_THROW(synth::Script::parse("fs -k 4"), std::invalid_argument);
  EXPECT_THROW(synth::Script::parse("b -c 7"), std::invalid_argument);
  EXPECT_THROW(synth::Script::parse("rw -c 0"), std::invalid_argument);

  const synth::Script preset = synth::Script::preset("resyn2fs");
  bool has_fs = false;
  for (const synth::Pass& pass : preset.passes) {
    has_fs = has_fs || pass.kind == synth::PassKind::kFraig;
  }
  EXPECT_TRUE(has_fs);
  EXPECT_NE(preset.fingerprint(), synth::Script::preset("resyn2").fingerprint());
}

TEST(Fraig, Resyn2fsNeverWorseThanResyn2) {
  // The acceptance bar: on every circuit of a mixed pool, resyn2fs ends
  // at most as large as resyn2 (ties allowed), under the default contest
  // options both presets run with.
  core::Rng rng(2020);
  std::vector<aig::Aig> pool;
  for (const auto flavor :
       {aig::ConeFlavor::kRandom, aig::ConeFlavor::kXorRich,
        aig::ConeFlavor::kArith}) {
    for (const std::uint32_t ands : {120u, 400u}) {
      aig::ConeOptions cone;
      cone.num_inputs = 12;
      cone.num_ands = ands;
      cone.max_tries = 2;
      cone.flavor = flavor;
      pool.push_back(aig::random_cone(cone, rng));
    }
  }
  const synth::PassManager manager{synth::SynthOptions{}};
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto with_fs =
        manager.run(pool[i], synth::Script::preset("resyn2fs"));
    const auto without =
        manager.run(pool[i], synth::Script::preset("resyn2"));
    EXPECT_LE(with_fs.circuit.num_ands(), without.circuit.num_ands())
        << "circuit " << i;
    EXPECT_EQ(sat::cec(pool[i], with_fs.circuit, {0, 0}).status,
              CecStatus::kEquivalent)
        << "circuit " << i;
  }
}

TEST(PassManager, VerifyEquivalenceHookCertifiesAndSkipsApprox) {
  core::Rng rng(31);
  const aig::Aig g = small_cone(rng, 8);

  synth::SynthOptions verified;
  verified.verify_equivalence = true;
  const synth::SynthResult exact =
      synth::PassManager(verified).run(g, synth::Script::preset("resyn2fs"));
  EXPECT_EQ(exact.verify, synth::VerifyStatus::kExact);
  EXPECT_EQ(exact.trace.back().pass, "verify");

  // An approx pass intentionally changes the function: nothing to certify.
  const synth::SynthResult approximated =
      synth::PassManager(verified).run(g, synth::Script::approx_to(5));
  EXPECT_EQ(approximated.verify, synth::VerifyStatus::kSkippedApprox);
  EXPECT_LE(approximated.circuit.num_ands(), 5u);

  // Budget enforcement is an approx pass too.
  synth::SynthOptions tight = verified;
  tight.node_budget = 5;
  const synth::SynthResult capped =
      synth::PassManager(tight).run(g, synth::Script::preset("fast"));
  EXPECT_EQ(capped.verify, synth::VerifyStatus::kSkippedApprox);

  // Off by default, and the fingerprint separates verified runs.
  const synth::SynthResult plain =
      synth::PassManager(synth::SynthOptions{}).run(g,
                                                    synth::Script::preset("fast"));
  EXPECT_EQ(plain.verify, synth::VerifyStatus::kNotRequested);
  EXPECT_NE(synth::SynthOptions{}.fingerprint(), verified.fingerprint());
}

TEST(Portfolio, TeamApproxFallbackNeverReportsExact) {
  // select_best_within_budget's over-budget fallback approximates the
  // candidate, so under a verify-enabled pipeline the returned model must
  // report kSkippedApprox — never the re-finish's "exact" — for both the
  // normal and the zero-budget (majority constant) branch.
  core::Rng rng(3);
  const aig::Aig g = small_cone(rng, 6);
  data::Dataset train(6, 64);
  for (std::size_t c = 0; c < 6; ++c) {
    train.column(c).randomize(rng);
  }
  train.labels().randomize(rng);

  synth::OptRequest verified = synth::default_opt_request();
  verified.options.verify_equivalence = true;
  const synth::ScopedOptRequest scoped(verified);

  for (const std::uint32_t budget : {5u, 0u}) {
    learn::TrainedModel candidate;
    candidate.circuit = g;
    candidate.method = "stub";
    core::Rng task_rng(11);
    const learn::TrainedModel picked = portfolio::select_best_within_budget(
        {candidate}, train, train, budget, task_rng);
    EXPECT_NE(picked.method.find("+approx"), std::string::npos);
    EXPECT_EQ(picked.verified, synth::VerifyStatus::kSkippedApprox)
        << "budget " << budget;
  }
}

TEST(ResultCache, VerifiedStatusRoundTrips) {
  const std::string dir =
      ::testing::TempDir() + "/lsml-sat-cache-" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  const suite::ResultCache cache(dir);
  suite::CachedTask task;
  task.result.benchmark = "ex99";
  task.result.method = "dt";
  task.result.verified = synth::VerifyStatus::kExact;
  task.aag = "aag 0 0 0 0 0\n";
  cache.store("teamX", "ex99", 0x1234, task);
  const auto loaded = cache.load("teamX", "ex99", 0x1234);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->result.verified, synth::VerifyStatus::kExact);

  synth::VerifyStatus parsed = synth::VerifyStatus::kNotRequested;
  EXPECT_TRUE(synth::verify_status_from_string("exact", &parsed));
  EXPECT_EQ(parsed, synth::VerifyStatus::kExact);
  EXPECT_FALSE(synth::verify_status_from_string("bogus", &parsed));
  EXPECT_STREQ(synth::to_string(synth::VerifyStatus::kSkippedApprox),
               "approx");
}

}  // namespace
}  // namespace lsml
