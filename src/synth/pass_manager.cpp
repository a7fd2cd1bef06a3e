#include "synth/pass_manager.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "aig/aig_approx.hpp"
#include "aig/aig_opt.hpp"
#include "core/bits.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sat/cec.hpp"
#include "sat/fraig.hpp"

namespace lsml::synth {

namespace {

using Clock = std::chrono::steady_clock;

// Process-wide counters live in the obs::Registry so `lsml query metrics`
// and PassManager::runs_executed()/memo_hits() read the same cells.
obs::Counter& runs_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("lsml_synth_runs_total");
  return c;
}

obs::Counter& memo_hits_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("lsml_synth_memo_hits_total");
  return c;
}

/// Per-pass wall-time and AND-reduction histograms, keyed by pass
/// spelling. A registry lookup per pass execution is noise next to the
/// pass itself (rewrites run for milliseconds).
void record_pass_metrics(const std::string& name, double ms,
                         std::uint32_t ands_before,
                         std::uint32_t ands_after) {
  obs::Registry& reg = obs::Registry::instance();
  reg.histogram("lsml_synth_pass_us{pass=\"" + name + "\"}")
      .record(static_cast<std::uint64_t>(ms * 1000.0));
  const std::uint64_t saved =
      ands_before > ands_after ? ands_before - ands_after : 0;
  reg.histogram("lsml_synth_pass_and_delta{pass=\"" + name + "\"}")
      .record(saved);
}

/// Memo of deterministic runs. Bounded defensively: past the cap new
/// results are simply not remembered (correctness never depends on it).
constexpr std::size_t kMemoMaxEntries = 8192;

std::mutex& memo_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_map<std::uint64_t, SynthResult>& memo_table() {
  static std::unordered_map<std::uint64_t, SynthResult> table;
  return table;
}

/// Smaller is better; depth breaks ties (the seed's final-balance rule).
bool improves(const aig::Aig& candidate, const aig::Aig& best) {
  if (candidate.num_ands() != best.num_ands()) {
    return candidate.num_ands() < best.num_ands();
  }
  return candidate.num_levels() < best.num_levels();
}

}  // namespace

const char* to_string(VerifyStatus status) {
  switch (status) {
    case VerifyStatus::kNotRequested:
      return "-";
    case VerifyStatus::kExact:
      return "exact";
    case VerifyStatus::kUndecided:
      return "undecided";
    case VerifyStatus::kSkippedApprox:
      return "approx";
    case VerifyStatus::kFailed:
      return "failed";
  }
  return "-";
}

bool verify_status_from_string(const std::string& text, VerifyStatus* out) {
  for (const VerifyStatus status :
       {VerifyStatus::kNotRequested, VerifyStatus::kExact,
        VerifyStatus::kUndecided, VerifyStatus::kSkippedApprox,
        VerifyStatus::kFailed}) {
    if (text == to_string(status)) {
      *out = status;
      return true;
    }
  }
  return false;
}

std::uint64_t SynthOptions::fingerprint() const {
  std::uint64_t h = core::hash_combine(0x5b7e9d23c0ffee01ULL, node_budget);
  h = core::hash_combine(h, static_cast<std::uint64_t>(max_rounds));
  h = core::hash_combine(h, static_cast<std::uint64_t>(time_budget_ms));
  h = core::hash_combine(h, approx_seed);
  if (verify_equivalence) {
    // Verification changes observable results (the verify field, plus the
    // repair fallback on failure), so verified runs key apart; the digest
    // of unverified runs is unchanged from before the hook existed.
    h = core::hash_combine(h, 0xcecULL);
    h = core::hash_combine(h, static_cast<std::uint64_t>(verify_conflict_budget));
  }
  return h;
}

std::uint32_t trace_ands_in(const std::vector<PassStats>& trace,
                            std::uint32_t fallback) {
  return trace.empty() ? fallback : trace.front().ands_before;
}

double trace_total_ms(const std::vector<PassStats>& trace) {
  double total = 0.0;
  for (const PassStats& s : trace) {
    total += s.ms;
  }
  return total;
}

std::uint32_t SynthResult::ands_in() const {
  return trace_ands_in(trace, circuit.num_ands());
}

double SynthResult::total_ms() const { return trace_total_ms(trace); }

SynthResult PassManager::run(const aig::Aig& in, const Script& script,
                             core::Rng* rng) const {
  runs_counter().add(1);
  const Clock::time_point start = Clock::now();
  const auto out_of_time = [&] {
    if (options_.time_budget_ms <= 0) {
      return false;
    }
    const double elapsed =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    return elapsed > static_cast<double>(options_.time_budget_ms);
  };

  core::Rng fallback_rng(options_.approx_seed);
  core::Rng& approx_rng = rng != nullptr ? *rng : fallback_rng;

  SynthResult result;
  const auto timed = [&result](const std::string& name, const aig::Aig& from,
                               auto&& fn) {
    PassStats stats;
    stats.pass = name;
    stats.ands_before = from.num_ands();
    stats.levels_before = from.num_levels();
    // Span names must outlive the tracer's rings; pass spellings are
    // dynamic, so intern them (only when tracing is actually on).
    obs::ScopedSpan span(
        obs::Tracer::enabled() ? obs::intern_name(name) : nullptr, "synth");
    const Clock::time_point t0 = Clock::now();
    aig::Aig to = fn();
    stats.ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    stats.ands_after = to.num_ands();
    stats.levels_after = to.num_levels();
    record_pass_metrics(name, stats.ms, stats.ands_before, stats.ands_after);
    result.trace.push_back(std::move(stats));
    return to;
  };
  const auto run_approx = [&](const aig::Aig& from, std::uint32_t budget,
                              std::uint32_t protect_depth) {
    aig::ApproxOptions approx;
    approx.node_budget = budget;
    approx.protect_depth = protect_depth;
    Pass spell;
    spell.kind = PassKind::kApprox;
    spell.node_budget = budget;
    return timed(spell.spelling(), from, [&] {
      return aig::approximate_to_budget(from, approx, approx_rng);
    });
  };
  // Approximation can stall when output-protection shields every node;
  // dropping the shield always reaches the budget on nonzero circuits.
  const auto shrink_to = [&](aig::Aig circuit, std::uint32_t budget) {
    if (circuit.num_ands() > budget) {
      circuit = run_approx(circuit, budget,
                           aig::ApproxOptions{}.protect_depth);
    }
    if (circuit.num_ands() > budget) {
      circuit = run_approx(circuit, budget, /*protect_depth=*/0);
    }
    return circuit;
  };

  aig::Aig current = in;
  // The monotonicity baseline: a run never beats cleanup by less than zero.
  aig::Aig best = in.cleanup();
  bool timed_out = false;
  // Set once any approx/const step runs: the function differs from `in`
  // on purpose, so the verify hook has nothing exact left to certify.
  bool function_changed = false;
  const int rounds = options_.max_rounds > 1 ? options_.max_rounds : 1;
  for (int round = 0; round < rounds && !timed_out; ++round) {
    const std::uint32_t at_round_start = current.num_ands();
    for (const Pass& pass : script.passes) {
      if (out_of_time()) {
        timed_out = true;
        break;
      }
      // Every preset opens with "c"; reuse the baseline cleanup there
      // instead of cleaning the raw circuit twice back to back.
      const bool is_baseline =
          round == 0 && &pass == script.passes.data() &&
          pass.kind == PassKind::kCleanup;
      switch (pass.kind) {
        case PassKind::kCleanup:
          current = timed("c", current, [&] {
            return is_baseline ? best : current.cleanup();
          });
          break;
        case PassKind::kBalance:
          current = timed("b", current, [&] { return aig::balance(current); });
          break;
        case PassKind::kRewrite:
        case PassKind::kRefactor:
          current = timed(pass.spelling(), current, [&] {
            return aig::rewrite(current, pass.effective_cut_size(),
                                pass.effective_cuts_per_node());
          });
          break;
        case PassKind::kFraig:
          current = timed(pass.spelling(), current, [&] {
            sat::FraigOptions fraig_options;
            fraig_options.conflict_budget = pass.effective_conflict_budget();
            return sat::fraig(current, fraig_options, approx_rng);
          });
          break;
        case PassKind::kApprox: {
          const std::uint32_t budget =
              pass.node_budget > 0 ? pass.node_budget : options_.node_budget;
          if (budget > 0 && current.num_ands() > budget) {
            current = shrink_to(std::move(current), budget);
            function_changed = true;
            // The function changed: earlier snapshots are incomparable.
            best = current;
          }
          break;
        }
      }
      if (pass.kind != PassKind::kApprox && improves(current, best)) {
        best = current;
      }
    }
    // Another round only pays while the script keeps shrinking the AIG.
    if (current.num_ands() >= at_round_start) {
      break;
    }
  }
  // Hand back the best snapshot. Recorded in the trace whenever it differs
  // from where the script ended, so the trace always reconciles with the
  // returned circuit even when a late pass regressed.
  if (current.num_ands() != best.num_ands() ||
      current.num_levels() != best.num_levels()) {
    current = timed("restore", current, [&] { return best; });
  } else {
    current = best;
  }

  // Budget guarantee: approximate down if the script left the circuit
  // over, escalating until the cap provably holds.
  if (options_.node_budget > 0 && current.num_ands() > options_.node_budget) {
    current = shrink_to(std::move(current), options_.node_budget);
    function_changed = true;
  }
  if (options_.node_budget > 0 && current.num_ands() > options_.node_budget) {
    // Pathological fallback: a constant circuit always fits any budget.
    // Each output gets its own majority constant under random simulation.
    function_changed = true;
    current = timed("const", current, [&] {
      constexpr std::size_t kPatterns = 1024;
      std::vector<core::BitVec> patterns(current.num_pis(),
                                         core::BitVec(kPatterns));
      std::vector<const core::BitVec*> pi_values;
      pi_values.reserve(patterns.size());
      for (auto& p : patterns) {
        p.randomize(approx_rng);
        pi_values.push_back(&p);
      }
      const auto sim = current.simulate(pi_values);
      aig::Aig constant(current.num_pis());
      for (std::size_t o = 0; o < current.num_outputs(); ++o) {
        constant.add_output(2 * sim[o].count() >= kPatterns ? aig::kLitTrue
                                                            : aig::kLitFalse);
      }
      return constant;
    });
  }

  // The verify_equivalence hook: certify the whole script exact with one
  // sat::cec call on the (input, output) pair. Failure never escapes as a
  // wrong circuit — the run falls back to the input's cleanup.
  if (options_.verify_equivalence) {
    if (function_changed) {
      result.verify = VerifyStatus::kSkippedApprox;
    } else {
      sat::CecStatus cec_status = sat::CecStatus::kUndecided;
      current = timed("verify", current, [&] {
        sat::CecLimits limits;
        limits.conflict_budget = options_.verify_conflict_budget;
        cec_status = sat::cec(in, current, limits).status;
        return current;
      });
      switch (cec_status) {
        case sat::CecStatus::kEquivalent:
          result.verify = VerifyStatus::kExact;
          break;
        case sat::CecStatus::kUndecided:
          result.verify = VerifyStatus::kUndecided;
          break;
        case sat::CecStatus::kNotEquivalent:
          result.verify = VerifyStatus::kFailed;
          current = timed("restore", current, [&] { return in.cleanup(); });
          if (options_.node_budget > 0 &&
              current.num_ands() > options_.node_budget) {
            // The baseline itself busts the cap; the budget guarantee
            // outranks exactness (and the status already says kFailed).
            current = shrink_to(std::move(current), options_.node_budget);
          }
          break;
      }
    }
  }

  result.circuit = std::move(current);
  return result;
}

SynthResult PassManager::run_cached(const aig::Aig& in,
                                    const Script& script) const {
  if (options_.time_budget_ms > 0) {
    return run(in, script);  // time-dependent results are never memoized
  }
  const std::uint64_t key = core::hash_combine(
      core::hash_combine(in.content_hash(), script.fingerprint()),
      options_.fingerprint());
  {
    std::lock_guard<std::mutex> lock(memo_mutex());
    const auto it = memo_table().find(key);
    if (it != memo_table().end()) {
      memo_hits_counter().add(1);
      return it->second;
    }
  }
  SynthResult result = run(in, script);
  {
    std::lock_guard<std::mutex> lock(memo_mutex());
    if (memo_table().size() < kMemoMaxEntries) {
      memo_table().emplace(key, result);
    }
  }
  return result;
}

std::uint64_t PassManager::runs_executed() { return runs_counter().load(); }

std::uint64_t PassManager::memo_hits() { return memo_hits_counter().load(); }

void PassManager::reset_counters() {
  runs_counter().reset();
  memo_hits_counter().reset();
}

void PassManager::clear_memo() {
  aig::clear_rewrite_memo();
  std::lock_guard<std::mutex> lock(memo_mutex());
  memo_table().clear();
}

}  // namespace lsml::synth
