#include "learn/cgp.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace lsml::learn {

namespace {

std::uint32_t lit_index(std::uint32_t lit) { return lit >> 1; }
bool lit_compl(std::uint32_t lit) { return lit & 1u; }

}  // namespace

core::BitVec CgpIndividual::evaluate(const data::Dataset& ds) const {
  const std::size_t rows = ds.num_rows();
  const std::size_t wpr = (rows + 63) / 64;
  // One row of words per gene; a literal reads a PI column or a gene row
  // and its complement flag becomes an all-ones XOR mask. Bits past `rows`
  // in a row's last word never reach a lower bit, so only the result's
  // tail is cleared.
  std::vector<std::uint64_t> arena(genes.size() * wpr);
  const auto words_of = [&](std::uint32_t lit) -> const std::uint64_t* {
    const std::uint32_t idx = lit_index(lit);
    return idx < num_pis ? ds.column(idx).words()
                         : arena.data() + (idx - num_pis) * wpr;
  };
  const auto mask_of = [](std::uint32_t lit) {
    return lit_compl(lit) ? ~std::uint64_t{0} : std::uint64_t{0};
  };
  for (std::size_t g = 0; g < genes.size(); ++g) {
    const CgpGene& gene = genes[g];
    const std::uint64_t* a = words_of(gene.in0);
    const std::uint64_t* b = words_of(gene.in1);
    const std::uint64_t ca = mask_of(gene.in0);
    const std::uint64_t cb = mask_of(gene.in1);
    std::uint64_t* out = arena.data() + g * wpr;
    if (gene.is_xor) {
      for (std::size_t i = 0; i < wpr; ++i) {
        out[i] = (a[i] ^ ca) ^ (b[i] ^ cb);
      }
    } else {
      for (std::size_t i = 0; i < wpr; ++i) {
        out[i] = (a[i] ^ ca) & (b[i] ^ cb);
      }
    }
  }
  core::BitVec result(rows);
  const std::uint64_t* src = words_of(output_lit);
  const std::uint64_t co = mask_of(output_lit);
  for (std::size_t i = 0; i < wpr; ++i) {
    result.words()[i] = src[i] ^ co;
  }
  result.mask_tail();
  return result;
}

aig::Aig CgpIndividual::to_aig() const {
  aig::Aig g(static_cast<std::uint32_t>(num_pis));
  std::vector<aig::Lit> map(num_pis + genes.size());
  for (std::size_t i = 0; i < num_pis; ++i) {
    map[i] = g.pi(static_cast<std::uint32_t>(i));
  }
  const auto lit_of = [&](std::uint32_t lit) {
    return aig::lit_notc(map[lit_index(lit)], lit_compl(lit));
  };
  for (std::size_t i = 0; i < genes.size(); ++i) {
    const CgpGene& gene = genes[i];
    map[num_pis + i] = gene.is_xor ? g.xor2(lit_of(gene.in0), lit_of(gene.in1))
                                   : g.and2(lit_of(gene.in0), lit_of(gene.in1));
  }
  g.add_output(lit_of(output_lit));
  return g.cleanup();
}

std::size_t CgpIndividual::active_genes() const {
  std::vector<std::uint8_t> active(genes.size(), 0);
  const auto mark = [&](std::uint32_t lit) {
    const std::uint32_t idx = lit_index(lit);
    if (idx >= num_pis) {
      active[idx - num_pis] = 1;
    }
  };
  mark(output_lit);
  for (std::size_t g = genes.size(); g-- > 0;) {
    if (active[g]) {
      mark(genes[g].in0);
      mark(genes[g].in1);
    }
  }
  return static_cast<std::size_t>(
      std::count(active.begin(), active.end(), 1));
}

namespace {

std::uint32_t random_lit(std::size_t gene_index, std::size_t num_pis,
                         core::Rng& rng) {
  const std::size_t limit = num_pis + gene_index;  // feed-forward constraint
  const auto idx = static_cast<std::uint32_t>(rng.below(limit));
  return (idx << 1) | static_cast<std::uint32_t>(rng.below(2));
}

}  // namespace

CgpIndividual Cgp::random_individual(std::size_t num_pis,
                                     const CgpOptions& options,
                                     core::Rng& rng) {
  CgpIndividual ind;
  ind.num_pis = num_pis;
  ind.genes.resize(options.genome_nodes);
  for (std::size_t g = 0; g < ind.genes.size(); ++g) {
    ind.genes[g].is_xor = options.use_xor && rng.flip(0.5);
    ind.genes[g].in0 = random_lit(g, num_pis, rng);
    ind.genes[g].in1 = random_lit(g, num_pis, rng);
  }
  const std::size_t out_gene =
      ind.genes.size() - 1 - rng.below(std::max<std::size_t>(1, ind.genes.size() / 10));
  ind.output_lit = static_cast<std::uint32_t>((num_pis + out_gene) << 1) |
                   static_cast<std::uint32_t>(rng.below(2));
  return ind;
}

CgpIndividual Cgp::from_aig(const aig::Aig& seed, const CgpOptions& options,
                            core::Rng& rng) {
  const aig::Aig clean = seed.cleanup();
  CgpIndividual ind;
  ind.num_pis = clean.num_pis();
  // "Twice the original AIG": one non-functional gene per real gene.
  const std::size_t real = clean.num_ands();
  const std::size_t total =
      std::max<std::size_t>(std::max(options.genome_nodes, 2 * real), 8);
  ind.genes.resize(total);
  // Map AIG var -> literal index in CGP space.
  std::vector<std::uint32_t> map(clean.num_nodes(), 0);
  for (std::uint32_t i = 0; i < clean.num_pis(); ++i) {
    map[i + 1] = i;
  }
  const auto cgp_lit = [&](aig::Lit l) {
    return (map[aig::lit_var(l)] << 1) |
           static_cast<std::uint32_t>(aig::lit_compl(l));
  };
  std::size_t g = 0;
  for (std::uint32_t v = clean.num_pis() + 1; v < clean.num_nodes(); ++v, ++g) {
    const aig::Node& n = clean.node(v);
    ind.genes[g].is_xor = false;
    ind.genes[g].in0 = cgp_lit(n.fanin0);
    ind.genes[g].in1 = cgp_lit(n.fanin1);
    map[v] = static_cast<std::uint32_t>(ind.num_pis + g);
  }
  for (; g < total; ++g) {
    ind.genes[g].is_xor = options.use_xor && rng.flip(0.5);
    ind.genes[g].in0 = random_lit(g, ind.num_pis, rng);
    ind.genes[g].in1 = random_lit(g, ind.num_pis, rng);
  }
  if (aig::lit_var(clean.output(0)) == 0) {
    // Constant output: realize it as x0 AND !x0 in gene 0.
    ind.genes[0].is_xor = false;
    ind.genes[0].in0 = 0;  // x0
    ind.genes[0].in1 = 1;  // !x0
    ind.output_lit =
        static_cast<std::uint32_t>(ind.num_pis << 1) |
        static_cast<std::uint32_t>(aig::lit_compl(clean.output(0)));
  } else {
    ind.output_lit = cgp_lit(clean.output(0));
  }
  return ind;
}

CgpIndividual Cgp::evolve(CgpIndividual start, const data::Dataset& train,
                          const CgpOptions& options, core::Rng& rng) {
  data::Dataset batch = train;
  const bool use_batches =
      options.minibatch != 0 && options.minibatch < train.num_rows();
  const auto draw_batch = [&]() {
    std::vector<std::size_t> idx(options.minibatch);
    for (auto& i : idx) {
      i = rng.below(train.num_rows());
    }
    return train.select_rows(idx);
  };
  if (use_batches) {
    batch = draw_batch();
  }

  const auto fitness = [&](const CgpIndividual& ind) {
    return data::accuracy(ind.evaluate(batch), batch.labels());
  };

  CgpIndividual parent = std::move(start);
  double parent_fit = fitness(parent);
  double rate = options.initial_mutation;
  int successes = 0;
  int window = 0;

  const auto mutate = [&](CgpIndividual ind) {
    for (std::size_t g = 0; g < ind.genes.size(); ++g) {
      if (rng.flip(rate)) {
        ind.genes[g].in0 = random_lit(g, ind.num_pis, rng);
      }
      if (rng.flip(rate)) {
        ind.genes[g].in1 = random_lit(g, ind.num_pis, rng);
      }
      if (options.use_xor && rng.flip(rate)) {
        ind.genes[g].is_xor = !ind.genes[g].is_xor;
      }
    }
    if (rng.flip(rate * 4)) {
      const std::size_t out_gene =
          ind.genes.size() - 1 -
          rng.below(std::max<std::size_t>(1, ind.genes.size() / 4));
      ind.output_lit =
          static_cast<std::uint32_t>((ind.num_pis + out_gene) << 1) |
          static_cast<std::uint32_t>(rng.below(2));
    }
    return ind;
  };

  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    if (use_batches && options.change_batch_every != 0 &&
        gen % options.change_batch_every == options.change_batch_every - 1) {
      batch = draw_batch();
      parent_fit = fitness(parent);
    }
    bool improved = false;
    for (int o = 0; o < options.lambda; ++o) {
      CgpIndividual child = mutate(parent);
      const double child_fit = fitness(child);
      // >= lets neutral drift through; on exact ties the paper prefers the
      // phenotypically larger individual.
      if (child_fit > parent_fit ||
          (child_fit == parent_fit &&
           child.active_genes() >= parent.active_genes())) {
        improved = child_fit > parent_fit;
        parent = std::move(child);
        parent_fit = child_fit;
      }
    }
    // 1/5th success rule on a sliding window.
    successes += improved ? 1 : 0;
    if (++window == 20) {
      const double ratio = successes / 20.0;
      rate = ratio > 0.2 ? std::min(0.25, rate * 1.15)
                         : std::max(1e-4, rate * 0.9);
      successes = 0;
      window = 0;
    }
  }
  return parent;
}

TrainedModel CgpLearner::fit(const data::Dataset& train,
                             const data::Dataset& valid, core::Rng& rng) {
  CgpIndividual start;
  std::string how = label_ + "(random)";
  if (seed_.has_value() &&
      circuit_accuracy(*seed_, train) >= 0.55) {  // the paper's 55% rule
    start = Cgp::from_aig(*seed_, options_, rng);
    how = label_ + "(bootstrapped)";
  } else {
    start = Cgp::random_individual(train.num_inputs(), options_, rng);
  }
  const CgpIndividual best = Cgp::evolve(std::move(start), train, options_, rng);
  return finish_model(best.to_aig(), how, train, valid);
}

}  // namespace lsml::learn
