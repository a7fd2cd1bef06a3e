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

std::vector<double> circuit_accuracies(aig::SimEngine& engine,
                                       const data::Dataset& ds,
                                       const std::vector<aig::Lit>& candidates) {
  std::vector<double> accs(candidates.size(), 0.0);
  if (ds.num_rows() == 0 || candidates.empty()) {
    return accs;
  }
  engine.run(ds.column_ptrs());
  std::vector<std::size_t> equal(candidates.size());
  engine.count_equal_many(candidates.data(), candidates.size(), ds.labels(),
                          equal.data());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    accs[i] = static_cast<double>(equal[i]) / static_cast<double>(ds.num_rows());
  }
  return accs;
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
  m.opt_script = optimized.script.str();
  m.method = std::move(method);
  // One engine, one arena: the train sweep's allocation is reused for the
  // valid sweep (the Table III accuracy pair).
  aig::SimEngine engine(m.circuit);
  m.train_acc = circuit_accuracy(engine, train);
  m.valid_acc = circuit_accuracy(engine, valid);
  return m;
}

}  // namespace lsml::learn
