#include "aig/aig_opt.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "aig/aig_build.hpp"
#include "tt/isop.hpp"

namespace lsml::aig {

namespace {

// ---------------------------------------------------------------- balance

class Balancer {
 public:
  explicit Balancer(const Aig& in)
      : in_(in), out_(in.num_pis()), refs_(in.fanout_counts()),
        map_(in.num_nodes(), kLitFalse) {
    for (std::uint32_t i = 0; i < in.num_pis(); ++i) {
      map_[i + 1] = out_.pi(i);
    }
    new_level_.assign(out_.num_nodes(), 0);
  }

  Aig run() {
    // Only rebuild the output cones; levels drive pairing order.
    for (Lit o : in_.outputs()) {
      out_.add_output(build(o));
    }
    return out_;
  }

 private:
  // Collects the leaves of the maximal AND tree rooted at var. Descends
  // through non-complemented AND fanins with a single fanout only, so no
  // shared logic is duplicated.
  void collect_leaves(std::uint32_t var, std::vector<Lit>& leaves) {
    for (Lit f : {in_.node(var).fanin0, in_.node(var).fanin1}) {
      const std::uint32_t fv = lit_var(f);
      if (!lit_compl(f) && in_.is_and(fv) && refs_[fv] == 1) {
        collect_leaves(fv, leaves);
      } else {
        leaves.push_back(f);
      }
    }
  }

  std::uint32_t level_of(Lit l) {
    const std::uint32_t v = lit_var(l);
    return v < new_level_.size() ? new_level_[v] : 0;
  }

  Lit and2_tracked(Lit a, Lit b) {
    const Lit r = out_.and2(a, b);
    const std::uint32_t v = lit_var(r);
    if (v >= new_level_.size()) {
      new_level_.resize(out_.num_nodes(), 0);
      new_level_[v] = 1 + std::max(level_of(a), level_of(b));
    }
    return r;
  }

  Lit build(Lit old) {
    const std::uint32_t var = lit_var(old);
    if (map_[var] == kLitFalse && in_.is_and(var)) {
      std::vector<Lit> leaves;
      collect_leaves(var, leaves);
      std::vector<Lit> built;
      built.reserve(leaves.size());
      for (Lit l : leaves) {
        built.push_back(build(l));
      }
      // Huffman-style pairing: always combine the two shallowest operands.
      while (built.size() > 1) {
        std::sort(built.begin(), built.end(), [&](Lit x, Lit y) {
          return level_of(x) > level_of(y);
        });
        const Lit a = built.back();
        built.pop_back();
        const Lit b = built.back();
        built.pop_back();
        built.push_back(and2_tracked(a, b));
      }
      map_[var] = built[0];
    }
    return lit_notc(map_[var], lit_compl(old));
  }

  const Aig& in_;
  Aig out_;
  std::vector<std::uint32_t> refs_;
  std::vector<Lit> map_;
  std::vector<std::uint32_t> new_level_;
};

// ---------------------------------------------------------------- rewrite

/// Largest cut the rewriter handles: 6 leaves fit a 64-bit truth table.
constexpr int kMaxCutSize = 6;

/// Projection of leaf 0, padded to kMaxCutSize variables.
constexpr std::uint64_t kLeaf0Projection = 0xaaaaaaaaaaaaaaaaULL;

struct Cut {
  std::array<std::uint32_t, kMaxCutSize> leaves{};  // sorted variable ids
  int num_leaves = 0;
  std::uint64_t tt = 0;  // truth table over the leaves

  bool operator==(const Cut& o) const {
    return num_leaves == o.num_leaves && leaves == o.leaves && tt == o.tt;
  }
};

// Expands a truth table over `cut` leaves to one over `merged` leaves.
std::uint64_t expand_tt(std::uint64_t tt, const Cut& cut, const Cut& merged) {
  std::uint64_t result = 0;
  for (int m = 0; m < (1 << merged.num_leaves); ++m) {
    int sub = 0;
    for (int i = 0; i < cut.num_leaves; ++i) {
      // Position of cut leaf i inside merged leaves.
      int pos = 0;
      while (merged.leaves[pos] != cut.leaves[i]) {
        ++pos;
      }
      if (m & (1 << pos)) {
        sub |= 1 << i;
      }
    }
    if (tt & (1ULL << sub)) {
      result |= 1ULL << m;
    }
  }
  return result;
}

bool merge_cuts(const Cut& a, const Cut& b, int max_size, Cut* out) {
  Cut merged;
  int i = 0;
  int j = 0;
  while (i < a.num_leaves || j < b.num_leaves) {
    std::uint32_t next = 0;
    if (i < a.num_leaves && (j >= b.num_leaves || a.leaves[i] <= b.leaves[j])) {
      next = a.leaves[i++];
      if (j < b.num_leaves && b.leaves[j] == next) {
        ++j;
      }
    } else {
      next = b.leaves[j++];
    }
    if (merged.num_leaves == max_size) {
      return false;
    }
    merged.leaves[merged.num_leaves++] = next;
  }
  *out = merged;
  return true;
}

class Rewriter {
 public:
  Rewriter(const Aig& in, int cut_size, int cuts_per_node)
      : in_(in), cut_size_(std::clamp(cut_size, 2, kMaxCutSize)),
        cuts_per_node_(std::max(cuts_per_node, 1)),
        refs_(in.fanout_counts()) {}

  Aig run() {
    enumerate_cuts();
    choose_rewrites();
    return rebuild();
  }

 private:
  void enumerate_cuts() {
    cuts_.resize(in_.num_nodes());
    for (std::uint32_t v = 1; v < in_.num_nodes(); ++v) {
      Cut trivial;
      trivial.num_leaves = 1;
      trivial.leaves[0] = v;
      trivial.tt = kLeaf0Projection;
      if (!in_.is_and(v)) {
        cuts_[v] = {trivial};
        continue;
      }
      const Node& n = in_.node(v);
      std::vector<Cut> result;
      for (const Cut& ca : cuts_[lit_var(n.fanin0)]) {
        for (const Cut& cb : cuts_[lit_var(n.fanin1)]) {
          Cut merged;
          if (!merge_cuts(ca, cb, cut_size_, &merged)) {
            continue;
          }
          std::uint64_t ta = expand_tt(ca.tt, ca, merged);
          std::uint64_t tb = expand_tt(cb.tt, cb, merged);
          if (lit_compl(n.fanin0)) {
            ta = ~ta;
          }
          if (lit_compl(n.fanin1)) {
            tb = ~tb;
          }
          merged.tt = mask_tt(ta & tb, merged.num_leaves);
          if (std::find(result.begin(), result.end(), merged) ==
              result.end()) {
            result.push_back(merged);
          }
          if (result.size() >=
              static_cast<std::size_t>(cuts_per_node_)) {
            goto done;
          }
        }
      }
    done:
      result.push_back(trivial);
      cuts_[v] = std::move(result);
    }
  }

  static std::uint64_t mask_tt(std::uint64_t tt, int vars) {
    if (vars >= kMaxCutSize) {
      return tt;
    }
    const int bits = 1 << vars;
    // Replicate the low 2^vars bits to fill 64 (keeps expand_tt simple).
    std::uint64_t out = tt & ((1ULL << bits) - 1);
    for (int b = bits; b < 64; b <<= 1) {
      out |= out << b;
    }
    return out;
  }

  // MFFC size of v limited to the given cut: number of AND nodes freed if v
  // were replaced. Uses the classic dereference/re-reference walk so the
  // shared reference counts are restored afterwards (no O(n) copies).
  int mffc_size(std::uint32_t v, const Cut& cut) {
    const int freed = deref(v, cut);
    reref(v, cut);
    return freed;
  }

  bool is_cut_leaf(std::uint32_t v, const Cut& cut) const {
    for (int i = 0; i < cut.num_leaves; ++i) {
      if (cut.leaves[i] == v) {
        return true;
      }
    }
    return false;
  }

  int deref(std::uint32_t v, const Cut& cut) {
    int freed = 1;
    for (Lit f : {in_.node(v).fanin0, in_.node(v).fanin1}) {
      const std::uint32_t fv = lit_var(f);
      if (!in_.is_and(fv) || is_cut_leaf(fv, cut)) {
        continue;
      }
      if (--refs_[fv] == 0) {
        freed += deref(fv, cut);
      }
    }
    return freed;
  }

  void reref(std::uint32_t v, const Cut& cut) {
    for (Lit f : {in_.node(v).fanin0, in_.node(v).fanin1}) {
      const std::uint32_t fv = lit_var(f);
      if (!in_.is_and(fv) || is_cut_leaf(fv, cut)) {
        continue;
      }
      if (refs_[fv]++ == 0) {
        reref(fv, cut);
      }
    }
  }

  void choose_rewrites() {
    chosen_.assign(in_.num_nodes(), -1);
    for (std::uint32_t v = in_.num_pis() + 1; v < in_.num_nodes(); ++v) {
      int best_gain = 0;
      for (std::size_t c = 0; c < cuts_[v].size(); ++c) {
        const Cut& cut = cuts_[v][c];
        if (cut.num_leaves < 2 ||
            (cut.num_leaves == 2 && is_cut_leaf(lit_var(in_.node(v).fanin0), cut) &&
             is_cut_leaf(lit_var(in_.node(v).fanin1), cut))) {
          continue;  // trivial or identical to the node itself
        }
        const int old_cost = mffc_size(v, cut);
        const int new_cost = resynth_cost(cut);
        const int gain = old_cost - new_cost;
        if (gain > best_gain) {
          best_gain = gain;
          chosen_[v] = static_cast<int>(c);
        }
      }
    }
  }

  tt::TruthTable cut_tt(const Cut& cut) const {
    tt::TruthTable f(cut.num_leaves);
    for (int m = 0; m < (1 << cut.num_leaves); ++m) {
      if (cut.tt & (1ULL << m)) {
        f.set(static_cast<std::uint64_t>(m), true);
      }
    }
    return f;
  }

  int resynth_cost(const Cut& cut) const {
    const auto f = cut_tt(cut);
    const int pos = tt::sop_gate_cost(tt::isop(f));
    const int neg = tt::sop_gate_cost(tt::isop(~f));
    return std::min(pos, neg);
  }

  Aig rebuild() {
    Aig out(in_.num_pis());
    std::vector<Lit> map(in_.num_nodes(), kLitFalse);
    for (std::uint32_t i = 0; i < in_.num_pis(); ++i) {
      map[i + 1] = out.pi(i);
    }
    for (std::uint32_t v = in_.num_pis() + 1; v < in_.num_nodes(); ++v) {
      if (chosen_[v] >= 0) {
        const Cut& cut = cuts_[v][static_cast<std::size_t>(chosen_[v])];
        std::vector<Lit> leaves;
        leaves.reserve(static_cast<std::size_t>(cut.num_leaves));
        for (int i = 0; i < cut.num_leaves; ++i) {
          leaves.push_back(map[cut.leaves[i]]);
        }
        map[v] = from_truth_table(out, cut_tt(cut), leaves);
      } else {
        const Node& n = in_.node(v);
        map[v] = out.and2(lit_notc(map[lit_var(n.fanin0)], lit_compl(n.fanin0)),
                          lit_notc(map[lit_var(n.fanin1)], lit_compl(n.fanin1)));
      }
    }
    for (Lit o : in_.outputs()) {
      out.add_output(lit_notc(map[lit_var(o)], lit_compl(o)));
    }
    return out.cleanup();
  }

  const Aig& in_;
  int cut_size_;
  int cuts_per_node_;
  std::vector<std::uint32_t> refs_;
  std::vector<std::vector<Cut>> cuts_;
  std::vector<int> chosen_;
};

}  // namespace

Aig balance(const Aig& in) { return Balancer(in).run(); }

Aig rewrite(const Aig& in, int cut_size, int cuts_per_node) {
  return Rewriter(in, cut_size, cuts_per_node).run();
}

}  // namespace lsml::aig
