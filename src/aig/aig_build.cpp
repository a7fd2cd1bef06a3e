#include "aig/aig_build.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace lsml::aig {

namespace {

template <typename Combine>
Lit balanced_tree(Aig& g, std::vector<Lit> lits, Lit empty_value,
                  Combine combine) {
  if (lits.empty()) {
    return empty_value;
  }
  // Pairwise reduction keeps the tree balanced without sorting by level.
  while (lits.size() > 1) {
    std::vector<Lit> next;
    next.reserve((lits.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < lits.size(); i += 2) {
      next.push_back(combine(g, lits[i], lits[i + 1]));
    }
    if (lits.size() & 1) {
      next.push_back(lits.back());
    }
    lits = std::move(next);
  }
  return lits[0];
}

}  // namespace

Lit and_tree(Aig& g, std::vector<Lit> lits) {
  return balanced_tree(g, std::move(lits), kLitTrue,
                       [](Aig& a, Lit x, Lit y) { return a.and2(x, y); });
}

Lit or_tree(Aig& g, std::vector<Lit> lits) {
  return balanced_tree(g, std::move(lits), kLitFalse,
                       [](Aig& a, Lit x, Lit y) { return a.or2(x, y); });
}

Lit xor_tree(Aig& g, std::vector<Lit> lits) {
  return balanced_tree(g, std::move(lits), kLitFalse,
                       [](Aig& a, Lit x, Lit y) { return a.xor2(x, y); });
}

std::vector<Lit> ripple_adder(Aig& g, const std::vector<Lit>& a,
                              const std::vector<Lit>& b) {
  const std::size_t width = std::max(a.size(), b.size());
  std::vector<Lit> sum;
  sum.reserve(width + 1);
  Lit carry = kLitFalse;
  for (std::size_t i = 0; i < width; ++i) {
    const Lit x = i < a.size() ? a[i] : kLitFalse;
    const Lit y = i < b.size() ? b[i] : kLitFalse;
    const Lit xy = g.xor2(x, y);
    sum.push_back(g.xor2(xy, carry));
    carry = g.or2(g.and2(x, y), g.and2(xy, carry));
  }
  sum.push_back(carry);
  return sum;
}

Lit greater_than(Aig& g, const std::vector<Lit>& a,
                 const std::vector<Lit>& b) {
  assert(a.size() == b.size());
  // Iterate LSB -> MSB: gt = (a_i & !b_i) | (a_i==b_i) & gt_below.
  Lit gt = kLitFalse;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Lit ai_gt = g.and2(a[i], lit_not(b[i]));
    const Lit eq = g.xnor2(a[i], b[i]);
    gt = g.or2(ai_gt, g.and2(eq, gt));
  }
  return gt;
}

Lit greater_equal(Aig& g, const std::vector<Lit>& a,
                  const std::vector<Lit>& b) {
  return lit_not(greater_than(g, b, a));
}

Lit equals(Aig& g, const std::vector<Lit>& a, const std::vector<Lit>& b) {
  assert(a.size() == b.size());
  std::vector<Lit> bits;
  bits.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    bits.push_back(g.xnor2(a[i], b[i]));
  }
  return and_tree(g, std::move(bits));
}

std::vector<Lit> popcount(Aig& g, const std::vector<Lit>& lits) {
  if (lits.empty()) {
    return {kLitFalse};
  }
  // Merge-adder tree: maintain a list of binary counts and add pairwise.
  std::vector<std::vector<Lit>> counts;
  counts.reserve(lits.size());
  for (Lit l : lits) {
    counts.push_back({l});
  }
  while (counts.size() > 1) {
    std::vector<std::vector<Lit>> next;
    next.reserve((counts.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < counts.size(); i += 2) {
      next.push_back(ripple_adder(g, counts[i], counts[i + 1]));
    }
    if (counts.size() & 1) {
      next.push_back(counts.back());
    }
    counts = std::move(next);
  }
  return counts[0];
}

namespace {

std::vector<Lit> constant_word(std::uint32_t value, std::size_t width) {
  std::vector<Lit> bits(width, kLitFalse);
  for (std::size_t i = 0; i < width; ++i) {
    if (value & (1u << i)) {
      bits[i] = kLitTrue;
    }
  }
  return bits;
}

}  // namespace

Lit threshold_ge(Aig& g, const std::vector<Lit>& lits, std::uint32_t k) {
  if (k == 0) {
    return kLitTrue;
  }
  if (k > lits.size()) {
    return kLitFalse;
  }
  const auto count = popcount(g, lits);
  return greater_equal(g, count, constant_word(k, count.size()));
}

Lit majority(Aig& g, const std::vector<Lit>& lits) {
  if (lits.size() == 3) {
    return g.maj3(lits[0], lits[1], lits[2]);
  }
  return threshold_ge(g, lits,
                      static_cast<std::uint32_t>(lits.size() / 2 + 1));
}

Lit majority125_network(Aig& g, const std::vector<Lit>& lits) {
  if (lits.size() != 125) {
    throw std::invalid_argument("majority125_network needs 125 literals");
  }
  std::vector<Lit> layer = lits;
  while (layer.size() > 1) {
    std::vector<Lit> next;
    next.reserve(layer.size() / 5);
    for (std::size_t i = 0; i < layer.size(); i += 5) {
      const std::vector<Lit> group(layer.begin() + static_cast<long>(i),
                                   layer.begin() + static_cast<long>(i + 5));
      next.push_back(majority(g, group));
    }
    layer = std::move(next);
  }
  return layer[0];
}

Lit symmetric_function(Aig& g, const std::vector<Lit>& lits,
                       const std::vector<bool>& signature) {
  if (signature.size() != lits.size() + 1) {
    throw std::invalid_argument("symmetric_function: bad signature length");
  }
  const auto count = popcount(g, lits);
  std::vector<Lit> terms;
  for (std::uint32_t c = 0; c <= lits.size(); ++c) {
    if (signature[c]) {
      terms.push_back(equals(g, count, constant_word(c, count.size())));
    }
  }
  return or_tree(g, std::move(terms));
}

std::vector<Lit> multiplier(Aig& g, const std::vector<Lit>& a,
                            const std::vector<Lit>& b) {
  std::vector<std::vector<Lit>> partials;
  partials.reserve(b.size());
  for (std::size_t j = 0; j < b.size(); ++j) {
    std::vector<Lit> row(j, kLitFalse);  // shift by j
    row.reserve(j + a.size());
    for (Lit ai : a) {
      row.push_back(g.and2(ai, b[j]));
    }
    partials.push_back(std::move(row));
  }
  while (partials.size() > 1) {
    std::vector<std::vector<Lit>> next;
    for (std::size_t i = 0; i + 1 < partials.size(); i += 2) {
      next.push_back(ripple_adder(g, partials[i], partials[i + 1]));
    }
    if (partials.size() & 1) {
      next.push_back(partials.back());
    }
    partials = std::move(next);
  }
  auto product = partials[0];
  product.resize(a.size() + b.size(), kLitFalse);
  return product;
}

Lit from_cover(Aig& g, const std::vector<tt::SmallCube>& cubes,
               const std::vector<Lit>& leaves) {
  std::vector<Lit> terms;
  terms.reserve(cubes.size());
  for (const auto& cube : cubes) {
    std::vector<Lit> lits;
    for (std::size_t v = 0; v < leaves.size(); ++v) {
      if (cube.pos & (1u << v)) {
        lits.push_back(leaves[v]);
      }
      if (cube.neg & (1u << v)) {
        lits.push_back(lit_not(leaves[v]));
      }
    }
    terms.push_back(and_tree(g, std::move(lits)));
  }
  return or_tree(g, std::move(terms));
}

ChosenCover choose_cover(const tt::TruthTable& f) {
  ChosenCover pos{tt::isop(f), false, 0};
  ChosenCover neg{tt::isop(~f), true, 0};
  pos.cost = tt::sop_gate_cost(pos.cubes);
  neg.cost = tt::sop_gate_cost(neg.cubes);
  if (neg.cost < pos.cost) {
    return neg;
  }
  return pos;
}

Lit from_truth_table(Aig& g, const tt::TruthTable& f,
                     const std::vector<Lit>& leaves) {
  assert(static_cast<std::size_t>(f.num_vars()) == leaves.size());
  if (f.is_const0()) {
    return kLitFalse;
  }
  if (f.is_const1()) {
    return kLitTrue;
  }
  const ChosenCover cover = choose_cover(f);
  return lit_notc(from_cover(g, cover.cubes, leaves), cover.complemented);
}

}  // namespace lsml::aig
