#include "aig/aig_opt.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "aig/aig_build.hpp"
#include "obs/registry.hpp"

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

/// Truth table of variable v over kMaxCutSize variables.
constexpr std::array<std::uint64_t, kMaxCutSize> kVarTables = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

struct Cut {
  std::array<std::uint32_t, kMaxCutSize> leaves{};  // sorted variable ids
  int num_leaves = 0;
  std::uint64_t tt = 0;  // truth table over the leaves

  bool operator==(const Cut& o) const {
    return num_leaves == o.num_leaves && leaves == o.leaves && tt == o.tt;
  }
};

/// Exchanges variables i < j of a 64-bit truth table.
std::uint64_t swap_vars(std::uint64_t tt, int i, int j) {
  const int shift = (1 << j) - (1 << i);
  const std::uint64_t up = kVarTables[i] & ~kVarTables[j];  // x_i=1, x_j=0
  const std::uint64_t down = up << shift;                   // x_i=0, x_j=1
  return (tt & ~(up | down)) | ((tt & up) << shift) | ((tt & down) >> shift);
}

std::span<const std::uint32_t> leaves_of(const Cut& cut) {
  return {cut.leaves.data(), static_cast<std::size_t>(cut.num_leaves)};
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

/// Exact memo key of a cut function: its table is replicated to 64 bits
/// (mask_tt), so equal keys mean equal functions over equally many leaves.
struct CutKey {
  std::uint64_t tt = 0;
  int num_leaves = 0;

  bool operator==(const CutKey&) const = default;
};

struct CutKeyHash {
  std::size_t operator()(const CutKey& k) const {
    std::uint64_t z = k.tt ^ (static_cast<std::uint64_t>(k.num_leaves) << 61);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// Entries one thread's memo holds at most. Long-lived threads (serve's
/// pool) would otherwise grow it without bound; past the cap results are
/// computed and not remembered.
constexpr std::size_t kCutMemoMaxEntries = std::size_t{1} << 16;

/// Bumped by clear_rewrite_memo(); a thread whose table is older drops it.
std::atomic<std::uint64_t> g_cut_memo_epoch{0};

using CutMemo = std::unordered_map<CutKey, ChosenCover, CutKeyHash>;

/// This thread's memo, emptied first when clear_rewrite_memo() ran since
/// the thread last looked.
CutMemo& thread_cut_memo() {
  thread_local CutMemo memo;
  thread_local std::uint64_t epoch = 0;
  const std::uint64_t now = g_cut_memo_epoch.load(std::memory_order_relaxed);
  if (epoch != now) {
    memo = CutMemo();
    epoch = now;
  }
  return memo;
}

obs::Counter& cut_memo_hits_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("lsml_synth_cut_memo_hits_total");
  return c;
}

obs::Counter& cut_memo_misses_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("lsml_synth_cut_memo_misses_total");
  return c;
}

class Rewriter {
 public:
  Rewriter(const Aig& in, int cut_size, int cuts_per_node)
      : in_(in), cut_size_(std::clamp(cut_size, 2, kMaxCutSize)),
        cuts_per_node_(std::max(cuts_per_node, 1)),
        refs_(in.fanout_counts()), memo_(thread_cut_memo()) {}

  Aig run() {
    enumerate_cuts();
    choose_rewrites();
    Aig out = rebuild();
    // Counted locally and published once, so the cut loop does no atomics.
    cut_memo_hits_counter().add(hits_);
    cut_memo_misses_counter().add(misses_);
    return out;
  }

 private:
  void enumerate_cuts() {
    cuts_.resize(in_.num_nodes());
    for (std::uint32_t v = 1; v < in_.num_nodes(); ++v) {
      Cut trivial;
      trivial.num_leaves = 1;
      trivial.leaves[0] = v;
      trivial.tt = kVarTables[0];
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
          const auto leaves = leaves_of(merged);
          std::uint64_t ta = expand_tt(ca.tt, leaves_of(ca), leaves);
          std::uint64_t tb = expand_tt(cb.tt, leaves_of(cb), leaves);
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
    // Replicate the low 2^vars bits to fill 64: the table then does not
    // depend on the unused variables, which expand_tt swaps leaves into,
    // and the memo key (num_leaves, tt) is exact.
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
    chosen_.assign(in_.num_nodes(), Choice{});
    for (std::uint32_t v = in_.num_pis() + 1; v < in_.num_nodes(); ++v) {
      int best_gain = 0;
      for (const Cut& cut : cuts_[v]) {
        if (cut.num_leaves < 2 ||
            (cut.num_leaves == 2 && is_cut_leaf(lit_var(in_.node(v).fanin0), cut) &&
             is_cut_leaf(lit_var(in_.node(v).fanin1), cut))) {
          continue;  // trivial or identical to the node itself
        }
        const int old_cost = mffc_size(v, cut);
        const ChosenCover& cover = resynth(cut);
        const int gain = old_cost - cover.cost;
        if (gain > best_gain) {
          best_gain = gain;
          chosen_[v] = {&cut, &cover};
        }
      }
    }
  }

  // The cover from_truth_table would build for the cut's function, from
  // the memo when the function was seen before on this thread.
  const ChosenCover& resynth(const Cut& cut) {
    const CutKey key{cut.tt, cut.num_leaves};
    if (const auto it = memo_.find(key); it != memo_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    tt::TruthTable f(cut.num_leaves);
    for (int m = 0; m < (1 << cut.num_leaves); ++m) {
      if (cut.tt & (1ULL << m)) {
        f.set(static_cast<std::uint64_t>(m), true);
      }
    }
    if (memo_.size() < kCutMemoMaxEntries) {
      return memo_.emplace(key, choose_cover(f)).first->second;
    }
    return uncached_.emplace_back(choose_cover(f));
  }

  Aig rebuild() {
    Aig out(in_.num_pis());
    std::vector<Lit> map(in_.num_nodes(), kLitFalse);
    for (std::uint32_t i = 0; i < in_.num_pis(); ++i) {
      map[i + 1] = out.pi(i);
    }
    std::vector<Lit> leaves;
    for (std::uint32_t v = in_.num_pis() + 1; v < in_.num_nodes(); ++v) {
      if (const Choice& choice = chosen_[v]; choice.cut != nullptr) {
        leaves.clear();
        for (int i = 0; i < choice.cut->num_leaves; ++i) {
          leaves.push_back(map[choice.cut->leaves[i]]);
        }
        map[v] = lit_notc(from_cover(out, choice.cover->cubes, leaves),
                          choice.cover->complemented);
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
  // Per node: the cut to resynthesize and its cover; null keeps the node.
  struct Choice {
    const Cut* cut = nullptr;
    const ChosenCover* cover = nullptr;
  };
  std::vector<Choice> chosen_;
  CutMemo& memo_;
  std::deque<ChosenCover> uncached_;  // misses past the memo's cap
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace

Aig balance(const Aig& in) { return Balancer(in).run(); }

Aig rewrite(const Aig& in, int cut_size, int cuts_per_node) {
  return Rewriter(in, cut_size, cuts_per_node).run();
}

void clear_rewrite_memo() {
  g_cut_memo_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t expand_tt(std::uint64_t tt, std::span<const std::uint32_t> cut,
                        std::span<const std::uint32_t> merged) {
  assert(cut.size() <= merged.size() && merged.size() <= kMaxCutSize);
  // Both leaf lists are sorted, so leaf i lands at pos[i] >= i; moving the
  // highest leaf first always swaps it with a variable the table ignores.
  std::array<int, kMaxCutSize> pos{};
  std::size_t p = 0;
  for (std::size_t i = 0; i < cut.size(); ++i) {
    while (merged[p] != cut[i]) {
      ++p;
    }
    pos[i] = static_cast<int>(p++);
  }
  for (int i = static_cast<int>(cut.size()) - 1; i >= 0; --i) {
    if (pos[i] != i) {
      tt = swap_vars(tt, i, pos[i]);
    }
  }
  return tt;
}

}  // namespace lsml::aig
