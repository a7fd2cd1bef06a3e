// MLP pipeline tests: training, pruning, LUT synthesis, staged accuracy.

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "learn/mlp.hpp"

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

TEST(Mlp, LearnsLinearlySeparableFunction) {
  const auto f = [](const core::BitVec& r) { return r.get(0) || r.get(2); };
  const auto train = function_dataset(5, 400, 1, f);
  const auto test = function_dataset(5, 200, 2, f);
  MlpOptions options;
  options.hidden = {8};
  options.epochs = 20;
  core::Rng rng(3);
  const Mlp net = Mlp::fit(train, options, rng);
  EXPECT_GT(data::accuracy(net.predict(test), test.labels()), 0.95);
}

TEST(Mlp, WideInputsAreFeatureSelected) {
  const auto f = [](const core::BitVec& r) { return r.get(33); };
  const auto train = function_dataset(100, 300, 4, f);
  MlpOptions options;
  options.max_input_features = 16;
  options.epochs = 10;
  core::Rng rng(5);
  const Mlp net = Mlp::fit(train, options, rng);
  EXPECT_EQ(net.selected_features().size(), 16u);
  // The informative feature must survive MI selection.
  bool found = false;
  for (std::size_t v : net.selected_features()) {
    found |= v == 33;
  }
  EXPECT_TRUE(found);
}

TEST(Mlp, PruningReachesFaninTarget) {
  const auto f = [](const core::BitVec& r) { return r.get(1) && r.get(2); };
  const auto train = function_dataset(20, 300, 6, f);
  MlpOptions options;
  options.hidden = {24, 12};
  options.epochs = 8;
  options.prune_max_fanin = 6;
  options.prune_retrain_epochs = 2;
  core::Rng rng(7);
  Mlp net = Mlp::fit(train, options, rng);
  EXPECT_GT(net.max_fanin(), 6u);
  net.prune_to_fanin(train, rng);
  EXPECT_LE(net.max_fanin(), 6u);
  // Should still classify the simple target well.
  EXPECT_GT(data::accuracy(net.predict(train), train.labels()), 0.9);
}

TEST(Mlp, SynthesizedAigIsSmallAndAccurate) {
  const auto f = [](const core::BitVec& r) { return r.get(0) != r.get(3); };
  const auto train = function_dataset(6, 500, 8, f);
  MlpOptions options;
  options.hidden = {10};
  options.epochs = 25;
  options.prune_max_fanin = 6;
  core::Rng rng(9);
  Mlp net = Mlp::fit(train, options, rng);
  net.prune_to_fanin(train, rng);
  const aig::Aig g = net.to_aig(6);
  const auto sim = g.simulate(train.column_ptrs());
  EXPECT_GT(data::accuracy(sim[0], train.labels()), 0.9);
  EXPECT_LT(g.num_ands(), 2000u);
}

TEST(Mlp, SineActivationHandlesParity) {
  // Team 8's observation: periodic activations capture parity-like latent
  // frequency structure better than monotone ones.
  const auto f = [](const core::BitVec& r) {
    return (static_cast<int>(r.get(0)) + r.get(1) + r.get(2)) % 2 == 1;
  };
  const auto train = function_dataset(3, 300, 10, f);
  MlpOptions options;
  options.hidden = {12};
  options.activation = Activation::kSin;
  options.epochs = 60;
  options.learning_rate = 0.3;
  core::Rng rng(11);
  const Mlp net = Mlp::fit(train, options, rng);
  EXPECT_GT(data::accuracy(net.predict(train), train.labels()), 0.85);
}

TEST(MlpStages, DegradationIsOrderedAndBounded) {
  // Table V's shape: pruning and synthesis each cost some accuracy, but the
  // synthesized circuit stays well above chance.
  const auto f = [](const core::BitVec& r) {
    return (r.get(0) && r.get(1)) || (r.get(2) && r.get(3));
  };
  const auto train = function_dataset(8, 500, 12, f);
  const auto valid = function_dataset(8, 250, 13, f);
  const auto test = function_dataset(8, 250, 14, f);
  MlpOptions options;
  options.hidden = {16, 8};
  options.epochs = 20;
  options.prune_max_fanin = 8;
  core::Rng rng(15);
  const MlpStageAccuracy stages =
      mlp_staged_accuracy(train, valid, test, options, rng);
  EXPECT_GT(stages.initial_test, 0.9);
  EXPECT_GT(stages.synth_test, 0.75);
  EXPECT_LE(stages.synth_test, stages.initial_test + 0.05);
}

TEST(MlpLearner, EndToEnd) {
  const auto f = [](const core::BitVec& r) { return r.get(2); };
  const auto train = function_dataset(6, 200, 16, f);
  const auto valid = function_dataset(6, 100, 17, f);
  MlpOptions options;
  options.hidden = {6};
  options.epochs = 15;
  MlpLearner learner(options, "mlp-test");
  core::Rng rng(18);
  const TrainedModel model = learner.fit(train, valid, rng);
  EXPECT_GT(model.valid_acc, 0.9);
}

// Pins what training, prediction and LUT synthesis compute, for both
// activations on two seeded sets (the second wide enough to go through
// feature selection). Recorded before the row loops lost their per-row
// allocations, which must not change a single floating-point result.
struct MlpGolden {
  Activation activation;
  int set;
  std::uint64_t predict_hash;  ///< Mlp::predict on the test rows, pruned
  std::uint64_t raw_hash;      ///< Mlp::to_aig after pruning
  std::uint64_t learner_hash;  ///< MlpLearner::fit's optimized circuit
};

TEST(Mlp, GoldenHashesHoldForBothActivations) {
  const auto f0 = [](const core::BitVec& r) {
    return (r.get(0) && r.get(3)) != r.get(5);
  };
  const auto f1 = [](const core::BitVec& r) {
    return r.get(7) || (r.get(11) && !r.get(2)) || (r.get(20) && r.get(31));
  };
  const data::Dataset sets[2][2] = {
      {function_dataset(9, 300, 21, f0), function_dataset(9, 150, 22, f0)},
      {function_dataset(40, 300, 23, f1), function_dataset(40, 150, 24, f1)}};
  const MlpGolden golden[] = {
      {Activation::kSigmoid, 0,
       0x1d2a39d6782de31cULL, 0xacec39f35fad0761ULL, 0x7819979ed890baadULL},
      {Activation::kSigmoid, 1,
       0x3726e05bafffce74ULL, 0xc84153712b4e4cddULL, 0x5db3842b7fe3623bULL},
      {Activation::kSin, 0,
       0x117790185014e52cULL, 0xa1682571e53bba97ULL, 0xcc855cc90750d093ULL},
      {Activation::kSin, 1,
       0x7074c16eef83b328ULL, 0xf9bc9cedef4afa1dULL, 0xf43dff7b59775c80ULL},
  };
  for (const MlpGolden& g : golden) {
    const data::Dataset& train = sets[g.set][0];
    const data::Dataset& test = sets[g.set][1];
    MlpOptions options;
    options.hidden = {12, 6};
    options.activation = g.activation;
    options.epochs = 8;
    options.max_input_features = 16;
    options.prune_max_fanin = 8;
    options.prune_retrain_epochs = 2;
    core::Rng rng(25 + g.set);
    Mlp net = Mlp::fit(train, options, rng);
    net.prune_to_fanin(train, rng);
    EXPECT_EQ(net.predict(test).hash(), g.predict_hash)
        << "activation " << static_cast<int>(g.activation) << " set "
        << g.set;
    EXPECT_EQ(net.to_aig(train.num_inputs()).content_hash(), g.raw_hash)
        << "activation " << static_cast<int>(g.activation) << " set "
        << g.set;
    MlpLearner learner(options, "mlp-golden");
    core::Rng learner_rng(27 + g.set);
    EXPECT_EQ(learner.fit(train, test, learner_rng).circuit.content_hash(),
              g.learner_hash)
        << "activation " << static_cast<int>(g.activation) << " set "
        << g.set;
  }
}

}  // namespace
}  // namespace lsml::learn
