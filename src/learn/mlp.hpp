#pragma once
// Multi-layer perceptrons with connection pruning and LUT synthesis
// (Team 3's NN flow; Team 8's MLP with periodic activation).
//
// The pipeline mirrors the paper: train a small fully-connected network,
// iteratively prune connections (magnitude pruning + retraining) until
// every neuron has at most `prune_max_fanin` fanins, then convert each
// neuron into a LUT by enumerating its (binary) input assignments and
// thresholding the activation. Table V quantifies the accuracy lost at
// each stage; bench_table5_nn regenerates it.

#include <cstdint>
#include <string>
#include <vector>

#include "learn/learner.hpp"

namespace lsml::learn {

enum class Activation { kSigmoid, kSin };

struct MlpOptions {
  std::vector<int> hidden{32, 16};
  Activation activation = Activation::kSigmoid;
  int epochs = 24;
  double learning_rate = 0.15;
  double momentum = 0.85;
  /// Wider inputs are reduced to this many columns by mutual information
  /// before training (stands in for Team 3's input-connection pruning).
  std::size_t max_input_features = 48;
  int prune_max_fanin = 12;
  int prune_retrain_epochs = 4;
  std::uint64_t seed_hint = 0;
};

class Mlp {
 public:
  /// Trains on (a feature-selected view of) `ds`.
  static Mlp fit(const data::Dataset& ds, const MlpOptions& options,
                 core::Rng& rng);

  /// Float-forward classification (threshold 0.5 on the output neuron).
  [[nodiscard]] core::BitVec predict(const data::Dataset& ds) const;

  /// Magnitude-prunes connections until max fanin is met, retraining after
  /// each pruning round.
  void prune_to_fanin(const data::Dataset& ds, core::Rng& rng);

  /// Neuron-by-neuron LUT conversion; PIs span all dataset inputs.
  [[nodiscard]] aig::Aig to_aig(std::size_t num_inputs) const;

  [[nodiscard]] std::size_t max_fanin() const;
  [[nodiscard]] const std::vector<std::size_t>& selected_features() const {
    return selected_;
  }

 private:
  struct Layer {
    int in_dim = 0;
    int out_dim = 0;
    std::vector<double> w;       ///< out_dim x in_dim, row-major
    std::vector<double> b;
    std::vector<std::uint8_t> mask;  ///< connection alive?
    std::vector<double> vw;      ///< momentum buffers
    std::vector<double> vb;
  };

  /// Writes row `r`'s selected inputs as 0.0/1.0 into the first
  /// selected_features().size() entries of `x`.
  void load_row(const data::Dataset& ds, std::size_t r,
                std::vector<double>& x) const;
  /// Widest layer, inputs included: the size of every row buffer.
  [[nodiscard]] std::size_t max_width() const;
  /// Float forward pass of the inputs held in `cur`; `cur` and `next` are
  /// max_width() scratch rows that the pass swaps between layers.
  [[nodiscard]] double forward_row(std::vector<double>& cur,
                                   std::vector<double>& next) const;
  void train_epochs(const data::Dataset& ds, int epochs, core::Rng& rng);

  std::vector<Layer> layers_;
  Activation activation_ = Activation::kSigmoid;
  double learning_rate_ = 0.15;
  double momentum_ = 0.85;
  int prune_max_fanin_ = 12;
  int prune_retrain_epochs_ = 4;
  std::vector<std::size_t> selected_;  ///< dataset columns used as inputs
};

/// Learner wrapper: fit, prune, synthesize.
class MlpLearner final : public Learner {
 public:
  explicit MlpLearner(MlpOptions options, std::string label = "mlp")
      : options_(options), label_(std::move(label)) {}
  [[nodiscard]] std::string name() const override { return label_; }
  TrainedModel fit(const data::Dataset& train, const data::Dataset& valid,
                   core::Rng& rng) override;

 private:
  MlpOptions options_;
  std::string label_;
};

/// Accuracy at the three pipeline stages (Table V).
struct MlpStageAccuracy {
  double initial_train = 0, initial_valid = 0, initial_test = 0;
  double pruned_train = 0, pruned_valid = 0, pruned_test = 0;
  double synth_train = 0, synth_valid = 0, synth_test = 0;
};

MlpStageAccuracy mlp_staged_accuracy(const data::Dataset& train,
                                     const data::Dataset& valid,
                                     const data::Dataset& test,
                                     const MlpOptions& options,
                                     core::Rng& rng);

}  // namespace lsml::learn
