#include "learn/factory.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "learn/dt.hpp"
#include "learn/espresso_learner.hpp"
#include "learn/forest.hpp"

namespace lsml::learn {

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, LearnerFactory::Fn> factories;
};

Registry& registry() {
  static Registry instance;
  static std::once_flag builtins_once;
  std::call_once(builtins_once, [] {
    auto& f = instance.factories;
    f["dt"] = [] { return std::make_unique<DtLearner>(DtOptions{}, "dt"); };
    f["dt8"] = [] {
      DtOptions options;
      options.max_depth = 8;
      return std::make_unique<DtLearner>(options, "dt8");
    };
    f["rf"] = [] {
      ForestOptions options;
      options.num_trees = 9;
      options.tree.max_depth = 10;
      return std::make_unique<ForestLearner>(options, "rf");
    };
    f["espresso"] = [] {
      return std::make_unique<EspressoLearner>(sop::EspressoOptions{},
                                               "espresso");
    };
  });
  return instance;
}

}  // namespace

std::unique_ptr<Learner> LearnerFactory::make() const {
  if (!fn_) {
    throw std::logic_error("LearnerFactory::make: empty factory");
  }
  return fn_();
}

void LearnerFactory::register_factory(const std::string& key, Fn fn) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.factories[key] = std::move(fn);
}

LearnerFactory LearnerFactory::from_registry(const std::string& key) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.factories.find(key);
  if (it == r.factories.end()) {
    throw std::out_of_range("LearnerFactory: no factory named '" + key + "'");
  }
  return LearnerFactory(key, it->second);
}

LearnerFactory LearnerFactory::try_from_registry(const std::string& key) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.factories.find(key);
  if (it == r.factories.end()) {
    return {};
  }
  return LearnerFactory(key, it->second);
}

std::vector<std::string> LearnerFactory::registered() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [name, fn] : r.factories) {
    names.push_back(name);
  }
  return names;
}

}  // namespace lsml::learn
