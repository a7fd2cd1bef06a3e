#include "learn/learner.hpp"

#include <memory>
#include <utility>

#include "aig/sim_engine.hpp"
#include "synth/script_search.hpp"

namespace lsml::learn {

double circuit_accuracy(aig::SimEngine& engine, const data::Dataset& ds) {
  if (ds.num_rows() == 0 || engine.graph().num_outputs() == 0) {
    return 0.0;
  }
  engine.run(ds.column_ptrs());
  return static_cast<double>(
             engine.count_equal(engine.graph().output(0), ds.labels())) /
         static_cast<double>(ds.num_rows());
}

double circuit_accuracy(const aig::Aig& circuit, const data::Dataset& ds) {
  aig::SimEngine engine(circuit);
  return circuit_accuracy(engine, ds);
}

TrainedModel finish_model(aig::Aig circuit, std::string method,
                          const data::Dataset& train,
                          const data::Dataset& valid) {
  // The unified optimization entry: one memoized pass-manager run.
  const std::shared_ptr<const synth::ScriptSearch> optimizer =
      synth::default_optimizer();
  synth::OptOutcome optimized = optimizer->optimize(circuit);
  TrainedModel m;
  m.circuit = std::move(optimized.result.circuit);
  m.synth_trace = std::move(optimized.result.trace);
  m.verified = optimized.result.verify;
  m.method = std::move(method);
  // One engine, one arena: the train sweep's allocation is reused for the
  // valid sweep (the Table III accuracy pair).
  aig::SimEngine engine(m.circuit);
  m.train_acc = circuit_accuracy(engine, train);
  m.valid_acc = circuit_accuracy(engine, valid);
  return m;
}

}  // namespace lsml::learn
