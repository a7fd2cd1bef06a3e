#include "aig/aig.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "aig/sim_engine.hpp"

namespace lsml::aig {

namespace {

/// Initial unique-table bucket count (power of two, grown on demand).
constexpr std::uint32_t kInitialBuckets = 64;

/// SplitMix64 finalizer over the fanin pair: full-avalanche so chains stay
/// short under the regular literal patterns real circuits produce.
[[nodiscard]] std::uint64_t strash_hash(Lit a, Lit b) {
  std::uint64_t z = (static_cast<std::uint64_t>(a) << 32) | b;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Aig::Aig(std::uint32_t num_pis, StrashMode mode)
    : num_pis_(num_pis), mode_(mode) {
  fanin0_.resize(num_pis_ + 1, 0);
  fanin1_.resize(num_pis_ + 1, 0);
  next_.resize(num_pis_ + 1, kNil);
}

void Aig::reserve(std::uint32_t num_ands) {
  const std::size_t total = num_pis_ + 1 + num_ands;
  fanin0_.reserve(total);
  fanin1_.reserve(total);
  next_.reserve(total);
  std::uint32_t buckets = kInitialBuckets;
  while (buckets < num_ands) {
    buckets <<= 1;
  }
  if (buckets > heads_.size()) {
    heads_.assign(buckets, kNil);
    for (std::uint32_t v = num_pis_ + 1; v < num_nodes(); ++v) {
      const std::uint32_t bucket = bucket_of(fanin0_[v], fanin1_[v]);
      next_[v] = heads_[bucket];
      heads_[bucket] = v;
    }
  }
}

std::uint32_t Aig::bucket_of(Lit a, Lit b) const {
  return static_cast<std::uint32_t>(strash_hash(a, b) &
                                    (heads_.size() - 1));
}

void Aig::grow_table() {
  const std::size_t buckets = heads_.empty() ? kInitialBuckets
                                             : heads_.size() * 2;
  heads_.assign(buckets, kNil);
  for (std::uint32_t v = num_pis_ + 1; v < num_nodes(); ++v) {
    const std::uint32_t bucket = bucket_of(fanin0_[v], fanin1_[v]);
    next_[v] = heads_[bucket];
    heads_[bucket] = v;
  }
}

Lit Aig::fold_two_level(Lit a, Lit b) const {
  // Grandchild rules over AND(a, b), a <= b, trivial rules already done.
  // Every rule folds to an existing literal or a constant — never a new
  // node shape — so two-level construction is a pure subset of one-level.
  constexpr Lit kNoFold = kNil;
  const std::uint32_t va = lit_var(a);
  const std::uint32_t vb = lit_var(b);
  const bool and_a = is_and(va);
  const bool and_b = is_and(vb);
  if (and_a) {
    const Lit x = fanin0_[va];
    const Lit y = fanin1_[va];
    if (!lit_compl(a)) {
      // a = x & y: contradiction (a implies x and y) and containment.
      if (b == lit_not(x) || b == lit_not(y)) {
        return kLitFalse;
      }
      if (b == x || b == y) {
        return a;
      }
    } else if (b == lit_not(x) || b == lit_not(y)) {
      // a = !(x & y), b = !x: b already implies a (subsumption).
      return b;
    }
  }
  if (and_b) {
    const Lit x = fanin0_[vb];
    const Lit y = fanin1_[vb];
    if (!lit_compl(b)) {
      if (a == lit_not(x) || a == lit_not(y)) {
        return kLitFalse;
      }
      if (a == x || a == y) {
        return b;
      }
    } else if (a == lit_not(x) || a == lit_not(y)) {
      return a;
    }
  }
  if (and_a && and_b) {
    const Lit ax = fanin0_[va];
    const Lit ay = fanin1_[va];
    const Lit bx = fanin0_[vb];
    const Lit by = fanin1_[vb];
    const bool ca = lit_compl(a);
    const bool cb = lit_compl(b);
    if (!ca && !cb) {
      // Contradiction across grandchildren: (..x..) & (..!x..) = 0.
      if (ax == lit_not(bx) || ax == lit_not(by) || ay == lit_not(bx) ||
          ay == lit_not(by)) {
        return kLitFalse;
      }
    } else if (!ca && cb) {
      // a = ax & ay, b = !(bx & by): a true forces some b-grandchild
      // false, so a implies b and the AND collapses to a (subsumption).
      if (ax == lit_not(bx) || ax == lit_not(by) || ay == lit_not(bx) ||
          ay == lit_not(by)) {
        return a;
      }
    } else if (ca && !cb) {
      if (bx == lit_not(ax) || bx == lit_not(ay) || by == lit_not(ax) ||
          by == lit_not(ay)) {
        return b;
      }
    } else {
      // Resemblance: !(x & y) & !(x & !y) = !x.
      if (ax == bx && ay == lit_not(by)) {
        return lit_not(ax);
      }
      if (ax == by && ay == lit_not(bx)) {
        return lit_not(ax);
      }
      if (ay == bx && ax == lit_not(by)) {
        return lit_not(ay);
      }
      if (ay == by && ax == lit_not(bx)) {
        return lit_not(ay);
      }
    }
  }
  return kNoFold;
}

Lit Aig::and2(Lit a, Lit b) {
  if (a > b) {
    std::swap(a, b);
  }
  // Trivial cases.
  if (a == kLitFalse) {
    return kLitFalse;
  }
  if (a == kLitTrue) {
    return b;
  }
  if (a == b) {
    return a;
  }
  if (a == lit_not(b)) {
    return kLitFalse;
  }
  if (mode_ == StrashMode::kTwoLevel) {
    const Lit folded = fold_two_level(a, b);
    if (folded != static_cast<Lit>(kNil)) {
      return folded;
    }
  }
  assert(lit_var(a) < num_nodes() && lit_var(b) < num_nodes());
  if (heads_.empty()) {
    heads_.assign(kInitialBuckets, kNil);
  }
  const std::uint32_t bucket = bucket_of(a, b);
  for (std::uint32_t v = heads_[bucket]; v != kNil; v = next_[v]) {
    if (fanin0_[v] == a && fanin1_[v] == b) {
      return make_lit(v, false);
    }
  }
  if (num_ands() + 1 > heads_.size()) {
    grow_table();
  }
  const auto var = num_nodes();
  fanin0_.push_back(a);
  fanin1_.push_back(b);
  const std::uint32_t home = bucket_of(a, b);  // grow_table may have moved it
  next_.push_back(heads_[home]);
  heads_[home] = var;
  return make_lit(var, false);
}

Lit Aig::xor2(Lit a, Lit b) {
  // a ^ b = !(!(a & !b) & !(!a & b))
  return lit_not(and2(lit_not(and2(a, lit_not(b))), lit_not(and2(lit_not(a), b))));
}

Lit Aig::mux(Lit s, Lit t, Lit e) {
  return lit_not(and2(lit_not(and2(s, t)), lit_not(and2(lit_not(s), e))));
}

Lit Aig::maj3(Lit a, Lit b, Lit c) {
  return or2(and2(a, b), or2(and2(a, c), and2(b, c)));
}

std::vector<std::uint32_t> Aig::levels() const {
  std::vector<std::uint32_t> level(num_nodes(), 0);
  for (std::uint32_t v = num_pis_ + 1; v < num_nodes(); ++v) {
    level[v] = 1 + std::max(level[lit_var(fanin0_[v])],
                            level[lit_var(fanin1_[v])]);
  }
  return level;
}

std::uint32_t Aig::num_levels() const {
  const auto level = levels();
  std::uint32_t depth = 0;
  for (Lit out : outputs_) {
    depth = std::max(depth, level[lit_var(out)]);
  }
  return depth;
}

std::vector<std::uint32_t> Aig::fanout_counts() const {
  std::vector<std::uint32_t> refs(num_nodes(), 0);
  for (std::uint32_t v = num_pis_ + 1; v < num_nodes(); ++v) {
    ++refs[lit_var(fanin0_[v])];
    ++refs[lit_var(fanin1_[v])];
  }
  for (Lit out : outputs_) {
    ++refs[lit_var(out)];
  }
  return refs;
}

std::vector<bool> Aig::eval_row(const std::vector<std::uint8_t>& inputs) const {
  if (inputs.size() < num_pis_) {
    throw std::invalid_argument("Aig::eval_row: not enough input values");
  }
  std::vector<std::uint8_t> value(num_nodes(), 0);
  for (std::uint32_t i = 0; i < num_pis_; ++i) {
    value[i + 1] = inputs[i] ? 1 : 0;
  }
  for (std::uint32_t v = num_pis_ + 1; v < num_nodes(); ++v) {
    const std::uint8_t a = value[lit_var(fanin0_[v])] ^ lit_compl(fanin0_[v]);
    const std::uint8_t b = value[lit_var(fanin1_[v])] ^ lit_compl(fanin1_[v]);
    value[v] = a & b;
  }
  std::vector<bool> out;
  out.reserve(outputs_.size());
  for (Lit l : outputs_) {
    out.push_back((value[lit_var(l)] ^ lit_compl(l)) != 0);
  }
  return out;
}

std::vector<core::BitVec> Aig::simulate_nodes(
    const std::vector<const core::BitVec*>& pi_values) const {
  SimEngine engine(*this);
  engine.run(pi_values);
  return engine.node_values();
}

std::vector<core::BitVec> Aig::simulate(
    const std::vector<const core::BitVec*>& pi_values) const {
  SimEngine engine(*this);
  engine.run(pi_values);
  return engine.outputs();
}

std::uint64_t Aig::content_hash() const {
  // FNV-1a over the structure. Node ids are assigned in topological order,
  // so structurally identical circuits built the same way hash equal.
  std::uint64_t h = core::fnv1a(&num_pis_, sizeof(num_pis_));
  const std::size_t num_nodes = fanin0_.size();
  h = core::fnv1a(&num_nodes, sizeof(num_nodes), h);
  for (std::size_t v = num_pis_ + 1; v < fanin0_.size(); ++v) {
    const Lit fanins[2] = {fanin0_[v], fanin1_[v]};
    h = core::fnv1a(fanins, sizeof(fanins), h);
  }
  if (!outputs_.empty()) {
    h = core::fnv1a(outputs_.data(), outputs_.size() * sizeof(Lit), h);
  }
  return h;
}

Aig Aig::cleanup() const {
  std::vector<std::uint8_t> used(num_nodes(), 0);
  // Mark cones of all outputs (reverse topological sweep).
  for (Lit out : outputs_) {
    used[lit_var(out)] = 1;
  }
  std::uint32_t used_ands = 0;
  for (std::uint32_t v = num_nodes() - 1; v > num_pis_; --v) {
    if (used[v]) {
      ++used_ands;
      used[lit_var(fanin0_[v])] = 1;
      used[lit_var(fanin1_[v])] = 1;
    }
  }
  Aig result(num_pis_, mode_);
  // Node numbering never depends on the bucket count, so presizing the
  // unique table only skips its repeated doubling.
  result.reserve(used_ands);
  std::vector<Lit> map(num_nodes(), kLitFalse);
  for (std::uint32_t i = 0; i < num_pis_; ++i) {
    map[i + 1] = result.pi(i);
  }
  for (std::uint32_t v = num_pis_ + 1; v < num_nodes(); ++v) {
    if (!used[v]) {
      continue;
    }
    const Lit a = lit_notc(map[lit_var(fanin0_[v])], lit_compl(fanin0_[v]));
    const Lit b = lit_notc(map[lit_var(fanin1_[v])], lit_compl(fanin1_[v]));
    map[v] = result.and2(a, b);
  }
  for (Lit out : outputs_) {
    result.add_output(lit_notc(map[lit_var(out)], lit_compl(out)));
  }
  return result;
}

std::uint32_t Aig::cone_size() const {
  std::vector<std::uint8_t> used(num_nodes(), 0);
  for (Lit out : outputs_) {
    used[lit_var(out)] = 1;
  }
  std::uint32_t count = 0;
  for (std::uint32_t v = num_nodes() - 1; v > num_pis_; --v) {
    if (used[v]) {
      ++count;
      used[lit_var(fanin0_[v])] = 1;
      used[lit_var(fanin1_[v])] = 1;
    }
  }
  return count;
}

namespace {

/// Copies every node of `src` into `dst` (PI i to PI i); returns the
/// src var -> dst literal map.
std::vector<Lit> copy_nodes(Aig& dst, const Aig& src) {
  if (src.num_pis() > dst.num_pis()) {
    throw std::invalid_argument("append_aig: source has more PIs");
  }
  std::vector<Lit> map(src.num_nodes(), kLitFalse);
  for (std::uint32_t i = 0; i < src.num_pis(); ++i) {
    map[i + 1] = dst.pi(i);
  }
  for (std::uint32_t v = src.num_pis() + 1; v < src.num_nodes(); ++v) {
    const Node n = src.node(v);
    map[v] = dst.and2(lit_notc(map[lit_var(n.fanin0)], lit_compl(n.fanin0)),
                      lit_notc(map[lit_var(n.fanin1)], lit_compl(n.fanin1)));
  }
  return map;
}

}  // namespace

Lit append_aig(Aig& dst, const Aig& src, std::size_t output_index) {
  const std::vector<Lit> map = copy_nodes(dst, src);
  const Lit out = src.output(output_index);
  return lit_notc(map[lit_var(out)], lit_compl(out));
}

std::vector<Lit> append_aig_outputs(Aig& dst, const Aig& src) {
  const std::vector<Lit> map = copy_nodes(dst, src);
  std::vector<Lit> outs;
  outs.reserve(src.num_outputs());
  for (const Lit out : src.outputs()) {
    outs.push_back(lit_notc(map[lit_var(out)], lit_compl(out)));
  }
  return outs;
}

double agreement(const Aig& aig,
                 const std::vector<const core::BitVec*>& pi_values,
                 const core::BitVec& labels) {
  if (aig.num_outputs() == 0 || labels.size() == 0) {
    return 0.0;
  }
  SimEngine engine(aig);
  engine.run(pi_values);
  return static_cast<double>(engine.count_equal(aig.output(0), labels)) /
         static_cast<double>(labels.size());
}

}  // namespace lsml::aig
