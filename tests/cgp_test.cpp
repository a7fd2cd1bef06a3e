// CGP tests: genotype evaluation vs AIG, bootstrap embedding, evolution.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "learn/cgp.hpp"
#include "learn/dt.hpp"

namespace lsml::learn {
namespace {

data::Dataset function_dataset(std::size_t inputs, std::size_t rows, int seed,
                               bool (*f)(const core::BitVec&)) {
  core::Rng rng(seed);
  data::Dataset ds(inputs, rows);
  for (std::size_t r = 0; r < rows; ++r) {
    core::BitVec row(inputs);
    row.randomize(rng);
    for (std::size_t c = 0; c < inputs; ++c) {
      ds.set_input(r, c, row.get(c));
    }
    ds.set_label(r, f(row));
  }
  return ds;
}

// The BitVec-copying evaluation evaluate() replaced: copy, flip and move a
// BitVec per fanin per gene. The oracle evaluate() must equal bit for bit.
core::BitVec reference_evaluate(const CgpIndividual& ind,
                                const data::Dataset& ds) {
  std::vector<core::BitVec> gene_vals(ind.genes.size());
  const auto value_of = [&](std::uint32_t lit) -> core::BitVec {
    const std::uint32_t idx = lit >> 1;
    core::BitVec v = idx < ind.num_pis ? ds.column(idx)
                                       : gene_vals[idx - ind.num_pis];
    if (lit & 1u) {
      v.flip();
    }
    return v;
  };
  for (std::size_t g = 0; g < ind.genes.size(); ++g) {
    const CgpGene& gene = ind.genes[g];
    core::BitVec a = value_of(gene.in0);
    const core::BitVec b = value_of(gene.in1);
    if (gene.is_xor) {
      a ^= b;
    } else {
      a &= b;
    }
    gene_vals[g] = std::move(a);
  }
  return value_of(ind.output_lit);
}

TEST(CgpIndividual, EvaluateMatchesReference) {
  core::Rng rng(31);
  for (const bool use_xor : {false, true}) {
    for (const std::size_t rows : {0, 1, 63, 64, 65, 200, 1000}) {
      for (int trial = 0; trial < 4; ++trial) {
        CgpOptions options;
        options.genome_nodes = 30 + 20 * static_cast<std::size_t>(trial);
        options.use_xor = use_xor;
        const std::size_t pis = 3 + static_cast<std::size_t>(trial) * 4;
        const auto ds = function_dataset(
            pis, rows, 40 + trial,
            [](const core::BitVec& r) { return r.get(0); });
        CgpIndividual ind = Cgp::random_individual(pis, options, rng);
        // Both output polarities, on a gene and on a PI.
        for (const std::uint32_t out :
             {ind.output_lit, ind.output_lit ^ 1u,
              static_cast<std::uint32_t>(2 * (pis - 1)),
              static_cast<std::uint32_t>(2 * (pis - 1) + 1)}) {
          ind.output_lit = out;
          const core::BitVec got = ind.evaluate(ds);
          EXPECT_EQ(got, reference_evaluate(ind, ds))
              << "xor " << use_xor << " rows " << rows << " output " << out;
          EXPECT_EQ(got.size(), rows);
        }
      }
    }
  }
}

TEST(CgpIndividual, EvaluateMatchesAig) {
  core::Rng rng(1);
  CgpOptions options;
  options.genome_nodes = 60;
  const CgpIndividual ind = Cgp::random_individual(7, options, rng);
  const auto ds = function_dataset(7, 256, 2, [](const core::BitVec& r) {
    return r.get(0);  // labels irrelevant; we compare outputs
  });
  const core::BitVec direct = ind.evaluate(ds);
  const aig::Aig g = ind.to_aig();
  const auto sim = g.simulate(ds.column_ptrs());
  EXPECT_EQ(sim[0], direct);
}

TEST(CgpIndividual, ActiveGenesBoundedByGenome) {
  core::Rng rng(3);
  CgpOptions options;
  options.genome_nodes = 40;
  const CgpIndividual ind = Cgp::random_individual(5, options, rng);
  EXPECT_LE(ind.active_genes(), 40u);
  EXPECT_GE(ind.active_genes(), 1u);
}

TEST(Cgp, FromAigPreservesFunction) {
  // Seed circuit: (x0 & x1) | !x2.
  aig::Aig seed(3);
  seed.add_output(
      seed.or2(seed.and2(seed.pi(0), seed.pi(1)), aig::lit_not(seed.pi(2))));
  core::Rng rng(4);
  CgpOptions options;
  const CgpIndividual ind = Cgp::from_aig(seed, options, rng);
  const auto ds = function_dataset(3, 64, 5, [](const core::BitVec& r) {
    return r.get(0);
  });
  const core::BitVec got = ind.evaluate(ds);
  const auto expect = seed.simulate(ds.column_ptrs());
  EXPECT_EQ(got, expect[0]);
  EXPECT_GE(ind.genes.size(), 2u * seed.num_ands());
}

TEST(Cgp, FromConstantAig) {
  aig::Aig seed(2);
  seed.add_output(aig::kLitTrue);
  core::Rng rng(6);
  const CgpIndividual ind = Cgp::from_aig(seed, {}, rng);
  const auto ds = function_dataset(2, 32, 7, [](const core::BitVec& r) {
    return r.get(0);
  });
  EXPECT_EQ(ind.evaluate(ds).count(), 32u);
}

TEST(Cgp, EvolutionImprovesFitnessOnSimpleTarget) {
  const auto f = [](const core::BitVec& r) { return r.get(0) != r.get(1); };
  const auto train = function_dataset(4, 256, 8, f);
  core::Rng rng(9);
  CgpOptions options;
  options.genome_nodes = 50;
  options.generations = 600;
  options.minibatch = 0;  // whole set: fitness is comparable across gens
  const CgpIndividual start = Cgp::random_individual(4, options, rng);
  const double start_acc =
      data::accuracy(start.evaluate(train), train.labels());
  const CgpIndividual evolved = Cgp::evolve(start, train, options, rng);
  const double end_acc =
      data::accuracy(evolved.evaluate(train), train.labels());
  EXPECT_GE(end_acc, start_acc);
  EXPECT_GT(end_acc, 0.9) << "XOR of two inputs is easy for XAIG-CGP";
}

TEST(CgpLearner, BootstrapKicksInAboveThreshold) {
  const auto f = [](const core::BitVec& r) { return r.get(0) && r.get(2); };
  const auto train = function_dataset(5, 300, 10, f);
  const auto valid = function_dataset(5, 150, 11, f);
  core::Rng dt_rng(12);
  const DecisionTree tree = DecisionTree::fit(train, {}, dt_rng);
  CgpOptions options;
  options.genome_nodes = 60;
  options.generations = 200;
  CgpLearner learner(options, tree.to_aig(5), "cgp-test");
  core::Rng rng(13);
  const TrainedModel model = learner.fit(train, valid, rng);
  EXPECT_NE(model.method.find("bootstrapped"), std::string::npos);
  EXPECT_GT(model.valid_acc, 0.9);
}

TEST(CgpLearner, RandomInitWhenSeedIsWeak) {
  const auto f = [](const core::BitVec& r) { return r.get(1); };
  const auto train = function_dataset(5, 300, 14, f);
  const auto valid = function_dataset(5, 150, 15, f);
  // A constant-0 seed has ~50% accuracy -> below the 55% rule.
  aig::Aig weak_seed(5);
  weak_seed.add_output(aig::kLitFalse);
  CgpOptions options;
  options.genome_nodes = 40;
  options.generations = 400;
  options.minibatch = 0;
  CgpLearner learner(options, weak_seed, "cgp-test");
  core::Rng rng(16);
  const TrainedModel model = learner.fit(train, valid, rng);
  EXPECT_NE(model.method.find("random"), std::string::npos);
}

}  // namespace
}  // namespace lsml::learn
