#include "synth/script_search.hpp"

#include <mutex>
#include <utility>

#include "core/bits.hpp"

namespace lsml::synth {

Script OptRequest::resolved_script() const {
  return Script::named_or_parse(script);
}

void OptRequest::validate() const {
  (void)resolved_script();  // throws std::invalid_argument with context
}

std::string OptRequest::script_display() const {
  return resolved_script().str();
}

std::uint64_t OptRequest::fingerprint() const {
  return core::hash_combine(resolved_script().fingerprint(),
                            options.fingerprint());
}

OptOutcome ScriptSearch::optimize(const aig::Aig& in,
                                  const OptRequest& request) const {
  OptOutcome out;
  out.script = request.resolved_script();
  out.result = PassManager(request.options).run_cached(in, out.script);
  return out;
}

// ------------------------------------------------- process default plumbing

namespace {

struct DefaultOpt {
  std::mutex mutex;
  std::shared_ptr<const ScriptSearch> optimizer =
      std::make_shared<const ScriptSearch>(OptRequest{});
};

DefaultOpt& default_storage() {
  static DefaultOpt storage;
  return storage;
}

}  // namespace

OptRequest default_opt_request() { return default_optimizer()->request(); }

std::shared_ptr<const ScriptSearch> default_optimizer() {
  DefaultOpt& d = default_storage();
  std::lock_guard<std::mutex> lock(d.mutex);
  return d.optimizer;
}

OptRequest set_default_opt_request(OptRequest request) {
  auto optimizer = std::make_shared<const ScriptSearch>(std::move(request));
  DefaultOpt& d = default_storage();
  std::lock_guard<std::mutex> lock(d.mutex);
  OptRequest previous = d.optimizer->request();
  d.optimizer = std::move(optimizer);
  return previous;
}

}  // namespace lsml::synth
