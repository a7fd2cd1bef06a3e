#include "aig/aig_approx.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/simd.hpp"
#include "obs/registry.hpp"

namespace lsml::aig {

namespace {

/// Words popcounted before a candidate may be dropped early: past them, a
/// node whose best possible score cannot beat the leader is skipped.
constexpr std::size_t kProbeWords = 8;

obs::Counter& approx_rounds_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("lsml_synth_approx_rounds_total");
  return c;
}

/// A node to tie to a constant; var 0 means none.
struct Choice {
  std::uint32_t var = 0;
  bool value = false;
};

/// The circuit under approximation, mutated in place and indexed by the
/// node ids of the cleaned input. Ids never move: a node that is replaced
/// or swept is only marked dead, so surviving nodes keep the relative order
/// a compacting rebuild would give them.
class WorkingGraph {
 public:
  WorkingGraph(const Aig& g, std::size_t num_patterns)
      : num_pis_(g.num_pis()),
        num_ands_(g.num_ands()),
        fanin0_(g.num_nodes(), kLitFalse),
        fanin1_(g.num_nodes(), kLitFalse),
        repl_(g.num_nodes(), kLitFalse),
        live_(g.num_nodes(), 1),
        queued_(g.num_nodes(), 0),
        refs_(g.num_nodes(), 0),
        fanouts_(g.num_nodes()),
        outputs_(g.outputs()),
        wpr_((num_patterns + 63) / 64),
        arena_(g.num_nodes() * wpr_, 0),
        pattern_(num_patterns),
        protected_(g.num_nodes(), 0) {
    table_.reserve(g.num_ands());
    for (std::uint32_t v = num_pis_ + 1; v < g.num_nodes(); ++v) {
      fanin0_[v] = g.fanin0(v);
      fanin1_[v] = g.fanin1(v);
      for (const Lit f : {fanin0_[v], fanin1_[v]}) {
        ++refs_[lit_var(f)];
        fanouts_[lit_var(f)].push_back(v);
      }
      table_.emplace(key(fanin0_[v], fanin1_[v]), v);
    }
    for (const Lit o : outputs_) {
      ++refs_[lit_var(o)];
    }
  }

  [[nodiscard]] std::uint32_t num_ands() const { return num_ands_; }

  /// Simulates every live AND over fresh random patterns, drawn exactly as
  /// one BitVec(num_patterns).randomize(rng) per PI in PI order, with one
  /// full-width kernel sweep in id order.
  void simulate(core::Rng& rng) {
    for (std::uint32_t i = 0; i < num_pis_; ++i) {
      pattern_.randomize(rng);
      if (wpr_ != 0) {
        std::memcpy(row(i + 1), pattern_.words(),
                    wpr_ * sizeof(std::uint64_t));
      }
    }
    gates_.clear();
    for (std::uint32_t v = num_pis_ + 1; v < fanin0_.size(); ++v) {
      if (live_[v]) {
        gates_.push_back({v, fanin0_[v], fanin1_[v]});
      }
    }
    if (wpr_ == 0 || gates_.empty()) {
      return;
    }
    const std::size_t rem = pattern_.size() & 63;
    const std::uint64_t tail_mask = rem == 0 ? ~0ULL : ((1ULL << rem) - 1);
    core::simd::ops().sweep(arena_.data(), wpr_, gates_.data(), gates_.size(),
                            tail_mask);
  }

  /// The unprotected live AND that is most often constant in the last
  /// simulation, lowest id on ties; var 0 when every node is protected.
  [[nodiscard]] Choice most_constant(const ApproxOptions& options) {
    mark_protected(options.protect_depth);
    const core::simd::Ops& kernels = core::simd::ops();
    const std::size_t probe_bits = kProbeWords * 64;
    std::size_t best_score = 0;
    Choice best;
    for (const core::simd::SweepGate& gate : gates_) {
      const std::uint32_t v = gate.dst;
      if (protected_[v]) {
        continue;
      }
      // Rows honor the tail-zero invariant, so the popcount needs no mask.
      std::size_t ones;
      if (wpr_ > kProbeWords) {
        ones = kernels.popcount(row(v), kProbeWords);
        // Only a strictly greater score wins, so this skip is exact.
        const std::size_t bound = std::max(ones, probe_bits - ones) +
                                  (options.num_patterns - probe_bits);
        if (bound <= best_score) {
          continue;
        }
        ones += kernels.popcount(row(v) + kProbeWords, wpr_ - kProbeWords);
      } else {
        ones = kernels.popcount(row(v), wpr_);
      }
      const std::size_t zeros = options.num_patterns - ones;
      if (zeros >= ones && zeros > best_score) {
        best_score = zeros;
        best = {v, false};
      } else if (ones > zeros && ones > best_score) {
        best_score = ones;
        best = {v, true};
      }
    }
    return best;
  }

  /// Replaces AND `var` by a constant and propagates it through the
  /// affected fanout with one-level strash rules, then sweeps what lost its
  /// last reference. Equivalent to rebuilding the graph in id order through
  /// Aig::and2 (StrashMode::kOneLevel) followed by Aig::cleanup().
  void assign_constant(std::uint32_t var, bool value) {
    table_.erase(key(fanin0_[var], fanin1_[var]));
    substitute(var, value ? kLitTrue : kLitFalse);
    while (!dirty_.empty()) {
      const std::uint32_t v = dirty_.top();
      dirty_.pop();
      queued_[v] = 0;
      if (live_[v]) {
        restrash(v);
      }
    }
    sweep();
  }

  /// The live graph as an Aig (one-level strash mode), renumbered densely.
  [[nodiscard]] Aig materialize() const {
    Aig out(num_pis_);
    out.reserve(num_ands_);
    std::vector<Lit> map(fanin0_.size(), kLitFalse);
    for (std::uint32_t i = 0; i < num_pis_; ++i) {
      map[i + 1] = out.pi(i);
    }
    const auto remap = [&map](Lit l) {
      return lit_notc(map[lit_var(l)], lit_compl(l));
    };
    for (std::uint32_t v = num_pis_ + 1; v < fanin0_.size(); ++v) {
      if (live_[v]) {
        map[v] = out.and2(remap(fanin0_[v]), remap(fanin1_[v]));
      }
    }
    for (const Lit o : outputs_) {
      out.add_output(remap(o));
    }
    return out;
  }

 private:
  [[nodiscard]] static std::uint64_t key(Lit a, Lit b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  [[nodiscard]] std::uint64_t* row(std::uint32_t var) {
    return arena_.data() + static_cast<std::size_t>(var) * wpr_;
  }

  /// A fanin literal seen through this round's replacements. Targets are
  /// always final (lower ids, already processed), so one lookup suffices.
  [[nodiscard]] Lit resolve(Lit l) const {
    const std::uint32_t v = lit_var(l);
    return live_[v] ? l : lit_notc(repl_[v], lit_compl(l));
  }

  /// Drops one reference to `l`'s node; a live AND left with none becomes
  /// a sweep candidate.
  void release(Lit l) {
    const std::uint32_t v = lit_var(l);
    if (live_[v] && --refs_[v] == 0 && v > num_pis_) {
      doomed_.push(v);
    }
  }

  /// Kills `x` in favour of literal `r` (a constant or a lower node):
  /// redirects the outputs and queues the fanout. The caller has already
  /// taken x out of the unique table.
  void substitute(std::uint32_t x, Lit r) {
    live_[x] = 0;
    repl_[x] = r;
    --num_ands_;
    release(fanin0_[x]);
    release(fanin1_[x]);
    for (Lit& o : outputs_) {
      if (lit_var(o) == x) {
        o = lit_notc(r, lit_compl(o));
        ++refs_[lit_var(r)];
      }
    }
    for (const std::uint32_t f : fanouts_[x]) {
      if (live_[f] && !queued_[f] &&
          (lit_var(fanin0_[f]) == x || lit_var(fanin1_[f]) == x)) {
        queued_[f] = 1;
        dirty_.push(f);
      }
    }
  }

  /// Re-derives `u`'s fanins through the replacements, as Aig::and2 would
  /// in a rebuild: trivial rules first, then the unique table, keeping the
  /// lower id when two nodes meet.
  void restrash(std::uint32_t u) {
    const Lit old0 = fanin0_[u];
    const Lit old1 = fanin1_[u];
    Lit a = resolve(old0);
    Lit b = resolve(old1);
    if (a > b) {
      std::swap(a, b);
    }
    table_.erase(key(old0, old1));
    if (a == kLitFalse || a == lit_not(b)) {
      substitute(u, kLitFalse);
      return;
    }
    if (a == kLitTrue || a == b) {
      substitute(u, b);
      return;
    }
    const auto [it, inserted] = table_.try_emplace(key(a, b), u);
    const std::uint32_t w = it->second;
    if (!inserted && w < u) {
      substitute(u, make_lit(w, false));
      return;
    }
    for (const Lit f : {a, b}) {
      ++refs_[lit_var(f)];
      if (lit_var(f) != lit_var(old0) && lit_var(f) != lit_var(old1)) {
        fanouts_[lit_var(f)].push_back(u);
      }
    }
    release(old0);
    release(old1);
    fanin0_[u] = a;
    fanin1_[u] = b;
    if (!inserted) {
      // w's fanins are final, so a rebuild would keep its pair and merge
      // it into u, which comes first in id order.
      it->second = u;
      substitute(w, make_lit(u, false));
    }
  }

  /// Kills the ANDs left without references, highest id first so a
  /// node's fanins are visited after it.
  void sweep() {
    while (!doomed_.empty()) {
      const std::uint32_t v = doomed_.top();
      doomed_.pop();
      if (!live_[v] || refs_[v] != 0) {
        continue;
      }
      live_[v] = 0;
      --num_ands_;
      table_.erase(key(fanin0_[v], fanin1_[v]));
      release(fanin0_[v]);
      release(fanin1_[v]);
    }
  }

  /// Marks the nodes less than `depth` fanin steps from an output over
  /// live ANDs (the outputs' own nodes are at distance 0): a breadth-first
  /// search of `depth` levels, which visits only the protected nodes.
  void mark_protected(std::uint32_t depth) {
    for (const std::uint32_t v : marked_) {
      protected_[v] = 0;
    }
    marked_.clear();
    if (depth == 0) {
      return;
    }
    const auto mark = [this](std::uint32_t v) {
      if (!protected_[v]) {
        protected_[v] = 1;
        marked_.push_back(v);
      }
    };
    for (const Lit o : outputs_) {
      mark(lit_var(o));
    }
    // marked_[begin, end) is the level just reached.
    std::size_t begin = 0;
    for (std::uint32_t level = 1; level < depth; ++level) {
      const std::size_t end = marked_.size();
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t v = marked_[i];
        if (v > num_pis_ && live_[v]) {
          mark(lit_var(fanin0_[v]));
          mark(lit_var(fanin1_[v]));
        }
      }
      begin = end;
    }
  }

  std::uint32_t num_pis_;
  std::uint32_t num_ands_;
  std::vector<Lit> fanin0_;
  std::vector<Lit> fanin1_;
  std::vector<Lit> repl_;  ///< replacement literal of a substituted node
  std::vector<std::uint8_t> live_;
  std::vector<std::uint8_t> queued_;
  std::vector<std::uint32_t> refs_;  ///< live AND fanouts plus outputs
  /// AND fanouts per node; may hold dead nodes and former fanouts, so
  /// readers check liveness and the current fanins.
  std::vector<std::vector<std::uint32_t>> fanouts_;
  std::vector<Lit> outputs_;
  /// Fanin pair -> node. A node that merely lost its references stays
  /// hashable until the sweep, as in a rebuild before cleanup.
  std::unordered_map<std::uint64_t, std::uint32_t> table_;
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      dirty_;
  std::priority_queue<std::uint32_t> doomed_;

  std::size_t wpr_;  ///< 64-bit words per arena row
  std::vector<std::uint64_t> arena_;  ///< one row per node id
  core::BitVec pattern_;  ///< scratch for one PI's random draw
  std::vector<core::simd::SweepGate> gates_;
  std::vector<std::uint8_t> protected_;  ///< set for the nodes in marked_
  std::vector<std::uint32_t> marked_;    ///< this round's protected nodes
};

}  // namespace

Aig approximate_to_budget(const Aig& in, const ApproxOptions& options,
                          core::Rng& rng) {
  Aig initial = in.cleanup();
  if (initial.num_ands() <= options.node_budget) {
    return initial;
  }
  WorkingGraph graph(initial, options.num_patterns);
  std::uint64_t rounds = 0;
  while (graph.num_ands() > options.node_budget) {
    graph.simulate(rng);
    const Choice best = graph.most_constant(options);
    if (best.var == 0) {
      break;  // everything is protected; cannot shrink further
    }
    graph.assign_constant(best.var, best.value);
    ++rounds;
  }
  approx_rounds_counter().add(rounds);
  return rounds == 0 ? initial : graph.materialize();
}

}  // namespace lsml::aig
