#include "tt/isop.hpp"

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace lsml::tt {

namespace {

using Word = std::uint64_t;

// Masks of the minterms where a variable living inside one word is 1.
constexpr Word kVarMask[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

/// Words of a table over `vars` variables; below 6 variables the one word
/// holds the function replicated across all 64 bits.
constexpr std::size_t words_of(int vars) {
  return vars <= 6 ? 1 : std::size_t{1} << (vars - 6);
}

/// Scratch words one level splitting on `v` takes: the child onset, the
/// rest's upper bound and three child results, each `words_of(v)` wide,
/// plus the four one-word cofactors a variable below 6 needs.
constexpr std::size_t level_words(int v) {
  return 5 * words_of(v) + (v < 6 ? 4 : 0);
}

/// Arena words for a whole recursion over `num_vars` variables: the top
/// level's onset, upper bound and result, plus one level per variable (the
/// split variable strictly decreases along any chain of calls).
std::size_t arena_words(int num_vars) {
  std::size_t total = 3 * words_of(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    total += level_words(v);
  }
  return total;
}

Word cofactor0(Word w, int v) {
  const Word lo = w & ~kVarMask[v];
  return lo | (lo << (1 << v));
}

Word cofactor1(Word w, int v) {
  const Word hi = w & kVarMask[v];
  return hi | (hi >> (1 << v));
}

/// True if `t` depends on variable `v`, given that it ignores every
/// variable above `v`: the table then repeats its first 2 * words_of(v)
/// words (its first word when v < 6), and only those are compared.
bool depends_on(const Word* t, int v) {
  if (v < 6) {
    return (((t[0] >> (1 << v)) ^ t[0]) & ~kVarMask[v]) != 0;
  }
  const std::size_t w = words_of(v);
  for (std::size_t i = 0; i < w; ++i) {
    if (t[i] != t[w + i]) {
      return true;
    }
  }
  return false;
}

/// Minato-Morreale over word spans. `on` and `upper` are tables over the
/// variables below `var` (`words_of(var)` words, neither depends on `var`
/// or above); the call appends an irredundant cover of some g with
/// on <= g <= upper to `out` and writes g's table to `res`. Scratch comes
/// from `arena`, which holds at least the sum of `level_words(v)` over
/// v < var.
void isop_rec(const Word* on, const Word* upper, int var, Word* res,
              Word* arena, std::vector<SmallCube>& out) {
  const std::size_t n = words_of(var);
  bool zero = true;
  for (std::size_t i = 0; i < n && zero; ++i) {
    zero = on[i] == 0;
  }
  if (zero) {
    for (std::size_t i = 0; i < n; ++i) {
      res[i] = 0;
    }
    return;
  }
  bool ones = true;
  for (std::size_t i = 0; i < n && ones; ++i) {
    ones = upper[i] == ~Word{0};
  }
  if (ones) {
    for (std::size_t i = 0; i < n; ++i) {
      res[i] = ~Word{0};
    }
    out.push_back(SmallCube{});
    return;
  }
  // The topmost variable that matters.
  int v = var - 1;
  while (v >= 0 && !depends_on(on, v) && !depends_on(upper, v)) {
    --v;
  }
  assert(v >= 0 && "non-trivial function must depend on something");

  // A cofactor on v >= 6 is the lower or upper half of the first
  // 2 * words_of(v) words; below 6 it is a mask-and-shift in one word.
  const std::size_t w = words_of(v);
  const Word* on0 = on;
  const Word* on1 = on + w;
  const Word* up0 = upper;
  const Word* up1 = upper + w;
  Word* scratch = arena;
  if (v < 6) {
    scratch[0] = cofactor0(on[0], v);
    scratch[1] = cofactor1(on[0], v);
    scratch[2] = cofactor0(upper[0], v);
    scratch[3] = cofactor1(upper[0], v);
    on0 = scratch;
    on1 = scratch + 1;
    up0 = scratch + 2;
    up1 = scratch + 3;
    scratch += 4;
  }
  Word* child_on = scratch;
  Word* child_up = scratch + w;
  Word* res0 = scratch + 2 * w;
  Word* res1 = scratch + 3 * w;
  Word* res2 = scratch + 4 * w;
  Word* below = scratch + 5 * w;

  // Cubes that must contain literal !v: on0 minterms not allowed under v=1.
  for (std::size_t i = 0; i < w; ++i) {
    child_on[i] = on0[i] & ~up1[i];
  }
  const std::size_t begin0 = out.size();
  isop_rec(child_on, up0, v, res0, below, out);
  const std::size_t begin1 = out.size();
  for (std::size_t c = begin0; c < begin1; ++c) {
    out[c].neg |= 1u << v;
  }
  // Cubes that must contain literal v.
  for (std::size_t i = 0; i < w; ++i) {
    child_on[i] = on1[i] & ~up0[i];
  }
  isop_rec(child_on, up1, v, res1, below, out);
  for (std::size_t c = begin1; c < out.size(); ++c) {
    out[c].pos |= 1u << v;
  }
  // Remaining onset handled by cubes independent of v.
  for (std::size_t i = 0; i < w; ++i) {
    child_on[i] = (on0[i] & ~res0[i]) | (on1[i] & ~res1[i]);
    child_up[i] = up0[i] & up1[i];
  }
  isop_rec(child_on, child_up, v, res2, below, out);

  // g = !v res0 | v res1 | res2, repeated over the variables v+1..var-1
  // that neither bound depends on.
  if (v < 6) {
    const Word g =
        (res0[0] & ~kVarMask[v]) | (res1[0] & kVarMask[v]) | res2[0];
    for (std::size_t i = 0; i < n; ++i) {
      res[i] = g;
    }
    return;
  }
  for (std::size_t i = 0; i < w; ++i) {
    res[i] = res0[i] | res2[i];
    res[w + i] = res1[i] | res2[i];
  }
  for (std::size_t i = 2 * w; i < n; ++i) {
    res[i] = res[i - 2 * w];
  }
}

/// `t`'s words, with a table below 6 variables replicated across the word.
void load(const TruthTable& t, Word* dst) {
  const std::vector<Word>& words = t.words();
  Word w = words[0];
  for (int k = t.num_vars(); k < 6; ++k) {
    w |= w << (1 << k);
  }
  dst[0] = w;
  for (std::size_t i = 1; i < words.size(); ++i) {
    dst[i] = words[i];
  }
}

}  // namespace

std::vector<SmallCube> isop(const TruthTable& on, const TruthTable& dc) {
  assert(on.num_vars() == dc.num_vars());
  const int num_vars = on.num_vars();
  const std::size_t n = words_of(num_vars);
  std::vector<Word> arena(arena_words(num_vars));
  Word* on_words = arena.data();
  Word* upper = on_words + n;
  Word* result = upper + n;
  load(on, on_words);
  load(dc, upper);
  for (std::size_t i = 0; i < n; ++i) {
    upper[i] |= on_words[i];
  }
  std::vector<SmallCube> cover;
  isop_rec(on_words, upper, num_vars, result, result + n, cover);
  // Correctness: on <= result <= on | dc.
  for (std::size_t i = 0; i < n; ++i) {
    assert((on_words[i] & ~result[i]) == 0);
    assert((result[i] & ~upper[i]) == 0);
  }
  // Covers are kept by the thousand in aig::rewrite's memo: drop the slack
  // the appends left.
  cover.shrink_to_fit();
  return cover;
}

std::vector<SmallCube> isop(const TruthTable& f) {
  return isop(f, TruthTable::constant(f.num_vars(), false));
}

int sop_gate_cost(const std::vector<SmallCube>& cubes) {
  if (cubes.empty()) {
    return 0;
  }
  int cost = static_cast<int>(cubes.size()) - 1;
  for (const auto& cube : cubes) {
    const int lits = cube.num_literals();
    if (lits > 0) {
      cost += lits - 1;
    }
  }
  return cost;
}

}  // namespace lsml::tt
