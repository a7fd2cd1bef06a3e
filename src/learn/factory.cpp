#include "learn/factory.hpp"

#include <stdexcept>
#include <string_view>

#include "learn/dt.hpp"
#include "learn/espresso_learner.hpp"
#include "learn/forest.hpp"

namespace lsml::learn {

namespace {

using MakeFn = std::unique_ptr<Learner> (*)();

struct Builtin {
  std::string_view name;
  MakeFn make;
};

/// The registry, sorted by name.
constexpr Builtin kBuiltins[] = {
    {"dt",
     []() -> std::unique_ptr<Learner> {
       return std::make_unique<DtLearner>(DtOptions{}, "dt");
     }},
    {"dt8",
     []() -> std::unique_ptr<Learner> {
       DtOptions options;
       options.max_depth = 8;
       return std::make_unique<DtLearner>(options, "dt8");
     }},
    {"espresso",
     []() -> std::unique_ptr<Learner> {
       return std::make_unique<EspressoLearner>(sop::EspressoOptions{},
                                                "espresso");
     }},
    {"rf",
     []() -> std::unique_ptr<Learner> {
       ForestOptions options;
       options.num_trees = 9;
       options.tree.max_depth = 10;
       return std::make_unique<ForestLearner>(options, "rf");
     }},
};

}  // namespace

std::unique_ptr<Learner> LearnerFactory::make() const {
  if (!fn_) {
    throw std::logic_error("LearnerFactory::make: empty factory");
  }
  return fn_();
}

LearnerFactory LearnerFactory::from_registry(const std::string& key) {
  LearnerFactory factory = try_from_registry(key);
  if (!factory) {
    throw std::out_of_range("LearnerFactory: no factory named '" + key + "'");
  }
  return factory;
}

LearnerFactory LearnerFactory::try_from_registry(const std::string& key) {
  for (const Builtin& builtin : kBuiltins) {
    if (builtin.name == key) {
      return LearnerFactory(key, builtin.make);
    }
  }
  return {};
}

std::vector<std::string> LearnerFactory::registered() {
  std::vector<std::string> names;
  for (const Builtin& builtin : kBuiltins) {
    names.emplace_back(builtin.name);
  }
  return names;
}

}  // namespace lsml::learn
