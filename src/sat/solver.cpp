#include "sat/solver.hpp"

#include <algorithm>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace lsml::sat {

namespace {

constexpr double kActivityDecay = 0.95;
constexpr double kActivityRescale = 1e100;
constexpr std::int64_t kRestartBase = 100;  ///< conflicts per Luby unit

/// Luby restart sequence 1,1,2,1,1,2,4,... (0-indexed).
std::int64_t luby(std::int64_t x) {
  std::int64_t size = 1;
  std::int64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return std::int64_t{1} << seq;
}

}  // namespace

Solver::Solver() = default;

Var Solver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(kUndef);
  phase_.push_back(kFalse);  // MiniSat's default: branch negative first
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  seen_.push_back(0);
  model_.push_back(kFalse);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back(0xffffffffu);
  heap_insert(v);
  return v;
}

void Solver::attach_clause(std::uint32_t ci) {
  const Clause& c = clauses_[ci];
  watches_[c.lits[0]].push_back({ci, c.lits[1]});
  watches_[c.lits[1]].push_back({ci, c.lits[0]});
}

bool Solver::add_clause(std::vector<Lit> lits) {
  cancel_until(0);
  if (!ok_) {
    return false;
  }
  // Canonicalize: sort, dedupe, drop root-false literals, detect
  // tautologies and root-satisfied clauses.
  std::sort(lits.begin(), lits.end());
  std::size_t out = 0;
  Lit previous = 0xffffffffu;
  for (const Lit l : lits) {
    if (l == previous) {
      continue;
    }
    if (previous != 0xffffffffu && l == lit_not(previous) &&
        lit_var(l) == lit_var(previous)) {
      return true;  // x | ~x: trivially satisfied
    }
    const std::uint8_t v = value(l);
    if (v == kTrue) {
      return true;  // satisfied at the root level
    }
    if (v == kFalse) {
      continue;  // permanently false here
    }
    lits[out++] = l;
    previous = l;
  }
  lits.resize(out);
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  if (lits.size() == 1) {
    enqueue(lits[0], kNoReason);
    ok_ = propagate() == kNoReason;
    return ok_;
  }
  const auto ci = static_cast<std::uint32_t>(clauses_.size());
  clauses_.push_back(Clause{std::move(lits)});
  attach_clause(ci);
  return true;
}

void Solver::enqueue(Lit l, std::uint32_t reason) {
  const Var v = lit_var(l);
  assigns_[v] = lit_sign(l) ? kFalse : kTrue;
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(l);
}

std::uint32_t Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];  // p just became true
    ++stats_.propagations;
    const Lit false_lit = lit_not(p);
    std::vector<Watcher>& ws = watches_[false_lit];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      Clause& c = clauses_[w.clause];
      if (c.lits[0] == false_lit) {
        std::swap(c.lits[0], c.lits[1]);
      }
      const Lit first = c.lits[0];
      if (first != w.blocker && value(first) == kTrue) {
        ws[j++] = {w.clause, first};
        ++i;
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < c.lits.size(); ++k) {
        if (value(c.lits[k]) != kFalse) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[c.lits[1]].push_back({w.clause, first});
          moved = true;
          break;
        }
      }
      if (moved) {
        ++i;  // watcher migrated to the new literal's list
        continue;
      }
      // Unit or conflicting.
      ws[j++] = {w.clause, first};
      ++i;
      if (value(first) == kFalse) {
        while (i < ws.size()) {
          ws[j++] = ws[i++];
        }
        ws.resize(j);
        propagate_head_ = trail_.size();
        return w.clause;
      }
      enqueue(first, w.clause);
    }
    ws.resize(j);
  }
  return kNoReason;
}

void Solver::analyze(std::uint32_t conflict, std::vector<Lit>* learned,
                     std::uint32_t* backtrack_level) {
  // First-UIP resolution: walk the trail backwards resolving current-level
  // literals until exactly one remains. (No clause minimization: the
  // learned clauses here are short-lived miter probes.)
  learned->clear();
  learned->push_back(0);  // slot for the asserting literal
  std::size_t index = trail_.size();
  Lit p = 0;
  bool have_p = false;
  std::uint32_t reason = conflict;
  int path_count = 0;
  do {
    const Clause& c = clauses_[reason];
    for (std::size_t k = have_p ? 1 : 0; k < c.lits.size(); ++k) {
      const Lit q = c.lits[k];
      const Var v = lit_var(q);
      if (seen_[v] == 0 && level_[v] > 0) {
        seen_[v] = 1;
        var_bump_activity(v);
        if (level_[v] >= decision_level()) {
          ++path_count;
        } else {
          learned->push_back(q);
        }
      }
    }
    do {
      --index;
    } while (seen_[lit_var(trail_[index])] == 0);
    p = trail_[index];
    have_p = true;
    reason = reason_[lit_var(p)];
    seen_[lit_var(p)] = 0;
    --path_count;
  } while (path_count > 0);
  (*learned)[0] = lit_not(p);

  if (learned->size() == 1) {
    *backtrack_level = 0;
  } else {
    // Second-highest decision level in the clause becomes the backtrack
    // target; that literal must sit in slot 1 to be watched.
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < learned->size(); ++k) {
      if (level_[lit_var((*learned)[k])] > level_[lit_var((*learned)[max_i])]) {
        max_i = k;
      }
    }
    std::swap((*learned)[1], (*learned)[max_i]);
    *backtrack_level = level_[lit_var((*learned)[1])];
  }
  for (const Lit l : *learned) {
    seen_[lit_var(l)] = 0;
  }
}

void Solver::cancel_until(std::uint32_t level) {
  if (decision_level() <= level) {
    return;
  }
  const std::uint32_t bound = trail_lim_[level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const Var v = lit_var(trail_[i - 1]);
    phase_[v] = assigns_[v];  // phase saving
    assigns_[v] = kUndef;
    reason_[v] = kNoReason;
    if (heap_pos_[v] == 0xffffffffu) {
      heap_insert(v);
    }
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  propagate_head_ = trail_.size();
}

Var Solver::pick_branch_var() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (assigns_[v] == kUndef) {
      return v;
    }
  }
  return num_vars();
}

void Solver::var_bump_activity(Var v) {
  activity_[v] += activity_inc_;
  if (activity_[v] > kActivityRescale) {
    for (double& a : activity_) {
      a *= 1.0 / kActivityRescale;
    }
    activity_inc_ *= 1.0 / kActivityRescale;
  }
  if (heap_pos_[v] != 0xffffffffu) {
    heap_sift_up(heap_pos_[v]);
  }
}

void Solver::var_decay_activity() { activity_inc_ /= kActivityDecay; }

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_sift_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) {
      break;
    }
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const Var v = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) {
      break;
    }
    if (child + 1 < heap_.size() &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) {
      break;
    }
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::uint32_t>(i);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = 0xffffffffu;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

namespace {

// Per-solve deltas into the process registry (stats_ is cumulative per
// Solver instance); recorded at scope exit so every return path counts.
struct SatMetrics {
  obs::Counter& solves;
  obs::Counter& conflicts;
  obs::Counter& propagations;
  obs::Counter& decisions;
  obs::Counter& restarts;

  static SatMetrics& get() {
    static SatMetrics* m = [] {
      obs::Registry& reg = obs::Registry::instance();
      return new SatMetrics{reg.counter("lsml_sat_solves_total"),
                            reg.counter("lsml_sat_conflicts_total"),
                            reg.counter("lsml_sat_propagations_total"),
                            reg.counter("lsml_sat_decisions_total"),
                            reg.counter("lsml_sat_restarts_total")};
    }();
    return *m;
  }
};

class SolveScope {
 public:
  explicit SolveScope(const SolverStats& stats)
      : stats_(stats), at_entry_(stats), span_("solve", "sat") {}
  ~SolveScope() {
    SatMetrics& m = SatMetrics::get();
    m.solves.add(1);
    m.conflicts.add(stats_.conflicts - at_entry_.conflicts);
    m.propagations.add(stats_.propagations - at_entry_.propagations);
    m.decisions.add(stats_.decisions - at_entry_.decisions);
    m.restarts.add(stats_.restarts - at_entry_.restarts);
  }

 private:
  const SolverStats& stats_;
  SolverStats at_entry_;
  obs::ScopedSpan span_;
};

/// One field of fit_to_cap: tightens `*limit` to cap - spent.
bool fit_limit(std::int64_t* limit, std::int64_t cap, std::uint64_t spent) {
  if (cap <= 0) {
    return true;
  }
  if (spent >= static_cast<std::uint64_t>(cap)) {
    return false;
  }
  const auto remaining = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(cap) - spent);
  if (*limit <= 0 || *limit > remaining) {
    *limit = remaining;
  }
  return true;
}

}  // namespace

bool fit_to_cap(Budget* limit, const Budget& cap,
                std::uint64_t spent_conflicts,
                std::uint64_t spent_propagations) {
  Budget fitted = *limit;
  if (!fit_limit(&fitted.max_conflicts, cap.max_conflicts, spent_conflicts) ||
      !fit_limit(&fitted.max_propagations, cap.max_propagations,
                 spent_propagations)) {
    return false;
  }
  *limit = fitted;
  return true;
}

Status Solver::solve(const std::vector<Lit>& assumptions,
                     const Budget& budget) {
  const SolveScope telemetry(stats_);
  cancel_until(0);
  if (!ok_) {
    return Status::kUnsat;
  }
  const std::uint64_t conflicts_at_entry = stats_.conflicts;
  const std::uint64_t props_at_entry = stats_.propagations;
  const auto out_of_budget = [&] {
    if (budget.max_conflicts > 0 &&
        stats_.conflicts - conflicts_at_entry >=
            static_cast<std::uint64_t>(budget.max_conflicts)) {
      return true;
    }
    return budget.max_propagations > 0 &&
           stats_.propagations - props_at_entry >=
               static_cast<std::uint64_t>(budget.max_propagations);
  };

  std::int64_t restart_index = 0;
  std::int64_t conflicts_until_restart = kRestartBase * luby(restart_index);
  std::vector<Lit> learned;
  for (;;) {
    const std::uint32_t conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      if (decision_level() == 0) {
        ok_ = false;
        return Status::kUnsat;
      }
      std::uint32_t backtrack_level = 0;
      analyze(conflict, &learned, &backtrack_level);
      cancel_until(backtrack_level);
      ++stats_.learned_clauses;
      stats_.learned_literals += learned.size();
      if (learned.size() == 1) {
        enqueue(learned[0], kNoReason);
      } else {
        const auto ci = static_cast<std::uint32_t>(clauses_.size());
        clauses_.push_back(Clause{learned});
        attach_clause(ci);
        enqueue(learned[0], ci);
      }
      var_decay_activity();
      if (out_of_budget()) {
        cancel_until(0);
        return Status::kUnknown;
      }
      if (--conflicts_until_restart <= 0) {
        ++stats_.restarts;
        ++restart_index;
        conflicts_until_restart = kRestartBase * luby(restart_index);
        cancel_until(0);  // assumptions are re-decided below
      }
      continue;
    }
    if (out_of_budget()) {
      cancel_until(0);
      return Status::kUnknown;
    }
    // Assumptions act as forced decisions on the first levels.
    Lit next = 0;
    bool have_next = false;
    while (decision_level() < assumptions.size()) {
      const Lit a = assumptions[decision_level()];
      const std::uint8_t v = value(a);
      if (v == kTrue) {
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
      } else if (v == kFalse) {
        cancel_until(0);
        return Status::kUnsat;  // assumptions are jointly unsatisfiable
      } else {
        next = a;
        have_next = true;
        break;
      }
    }
    if (!have_next) {
      const Var v = pick_branch_var();
      if (v == num_vars()) {
        model_ = assigns_;  // complete assignment: a model
        cancel_until(0);
        return Status::kSat;
      }
      next = make_lit(v, phase_[v] == kFalse);
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(next, kNoReason);
  }
}

}  // namespace lsml::sat
