#pragma once
// Common learner interface.
//
// Every technique in the paper is wrapped as a Learner: it consumes a
// training and a validation dataset and produces a TrainedModel whose
// `circuit` is the synthesized AIG — the contest's only deliverable. All
// accuracies are measured by simulating that AIG, so every model pays its
// own synthesis/quantization cost, exactly as in the contest.
//
// Learners lower their models to *raw* AIGs and hand them to
// finish_model, which optimizes through the process-default
// synth::OptRequest (the installed synth::default_optimizer(); memoized
// by circuit structure) exactly once and records the pass trace. No
// learner runs AIG passes directly; "how circuits get optimized" is the
// pass manager's contract, not each learner's habit. The script is one
// setting of the whole run, so a model does not carry it: whoever
// installed the request reports it (leaderboard.json's `opt` block).

#include <memory>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/sim_engine.hpp"
#include "core/rng.hpp"
#include "data/dataset.hpp"
#include "synth/pass_manager.hpp"

namespace lsml::learn {

struct TrainedModel {
  aig::Aig circuit{0};
  std::string method;      ///< human-readable description of what won
  double train_acc = 0.0;  ///< AIG accuracy on the training set
  double valid_acc = 0.0;  ///< AIG accuracy on the validation set
  /// What the optimization pipeline did to the raw circuit (finish_model's
  /// run, plus any approximation a portfolio applied on top).
  std::vector<synth::PassStats> synth_trace;
  /// SAT certification of that pipeline run (kNotRequested unless the
  /// pipeline's SynthOptions enabled verify_equivalence). Certifies the
  /// pass-manager run, not the learner: a later approximation downgrades
  /// it to kSkippedApprox (and is also visible in the method suffix).
  synth::VerifyStatus verified = synth::VerifyStatus::kNotRequested;
};

class Learner {
 public:
  virtual ~Learner() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual TrainedModel fit(const data::Dataset& train,
                           const data::Dataset& valid, core::Rng& rng) = 0;
};

/// Accuracy of a single-output AIG on a dataset (packed simulation).
double circuit_accuracy(const aig::Aig& circuit, const data::Dataset& ds);

/// Same, through a caller-held SimEngine bound to the circuit — the word
/// arena is reused across datasets (train/valid scoring shares one).
double circuit_accuracy(aig::SimEngine& engine, const data::Dataset& ds);

/// Optimizes the raw circuit through the process-default synth::OptRequest
/// (memoized on circuit structure, so identical circuits across teams
/// optimize once per process), then measures train/valid accuracies of
/// the optimized AIG. The returned model honors the request's node budget.
TrainedModel finish_model(aig::Aig circuit, std::string method,
                          const data::Dataset& train,
                          const data::Dataset& valid);

}  // namespace lsml::learn
