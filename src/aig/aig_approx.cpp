#include "aig/aig_approx.hpp"

#include <algorithm>
#include <vector>

#include "aig/sim_engine.hpp"

namespace lsml::aig {

Aig replace_with_constant(const Aig& in, std::uint32_t var, bool value) {
  Aig out(in.num_pis());
  out.reserve(in.num_ands());  // skips the unique table's repeated doubling
  std::vector<Lit> map(in.num_nodes(), kLitFalse);
  for (std::uint32_t i = 0; i < in.num_pis(); ++i) {
    map[i + 1] = out.pi(i);
  }
  for (std::uint32_t v = in.num_pis() + 1; v < in.num_nodes(); ++v) {
    if (v == var) {
      map[v] = value ? kLitTrue : kLitFalse;
      continue;
    }
    const Node& n = in.node(v);
    map[v] = out.and2(lit_notc(map[lit_var(n.fanin0)], lit_compl(n.fanin0)),
                      lit_notc(map[lit_var(n.fanin1)], lit_compl(n.fanin1)));
  }
  for (Lit o : in.outputs()) {
    out.add_output(lit_notc(map[lit_var(o)], lit_compl(o)));
  }
  return out.cleanup();
}

namespace {

// Depth of each node measured from the outputs (0 = drives an output).
std::vector<std::uint32_t> output_distance(const Aig& g) {
  constexpr std::uint32_t kInf = ~0u;
  std::vector<std::uint32_t> dist(g.num_nodes(), kInf);
  for (Lit o : g.outputs()) {
    dist[lit_var(o)] = 0;
  }
  for (std::uint32_t v = g.num_nodes() - 1; v > g.num_pis(); --v) {
    if (dist[v] == kInf) {
      continue;
    }
    for (Lit f : {g.node(v).fanin0, g.node(v).fanin1}) {
      dist[lit_var(f)] = std::min(dist[lit_var(f)], dist[v] + 1);
    }
  }
  return dist;
}

}  // namespace

Aig approximate_to_budget(const Aig& in, const ApproxOptions& options,
                          core::Rng& rng) {
  Aig current = in.cleanup();
  SimEngine engine(current);
  while (current.num_ands() > options.node_budget) {
    // Fresh random patterns each round, as in the original flow.
    std::vector<core::BitVec> patterns(current.num_pis(),
                                       core::BitVec(options.num_patterns));
    std::vector<const core::BitVec*> pi_values;
    pi_values.reserve(patterns.size());
    for (auto& p : patterns) {
      p.randomize(rng);
      pi_values.push_back(&p);
    }
    engine.bind(current);
    engine.run(pi_values);
    const auto dist = output_distance(current);

    std::uint32_t best_var = 0;
    std::size_t best_score = 0;
    bool best_value = false;
    for (std::uint32_t v = current.num_pis() + 1; v < current.num_nodes();
         ++v) {
      if (dist[v] < options.protect_depth) {
        continue;
      }
      // Engine rows honor the tail-zero invariant, so the popcount needs
      // no masking (this used to re-mask the last word by hand).
      const std::size_t ones = engine.count_ones(v);
      const std::size_t zeros = options.num_patterns - ones;
      if (zeros >= ones && zeros > best_score) {
        best_score = zeros;
        best_var = v;
        best_value = false;
      } else if (ones > zeros && ones > best_score) {
        best_score = ones;
        best_var = v;
        best_value = true;
      }
    }
    if (best_var == 0) {
      break;  // everything is protected; cannot shrink further
    }
    Aig next = replace_with_constant(current, best_var, best_value);
    if (next.num_ands() >= current.num_ands()) {
      break;  // no structural progress; avoid infinite loop
    }
    current = std::move(next);
  }
  return current;
}

}  // namespace lsml::aig
