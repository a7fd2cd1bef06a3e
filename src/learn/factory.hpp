#pragma once
// Learner factories: recipes for building fresh Learner instances.
//
// A Learner carries mutable training state, so one instance cannot be
// shared across threads. A LearnerFactory is the thread-safe currency of
// the parallel contest engine instead: it is copyable, stateless to
// invoke, and every make() returns an independent instance that one worker
// owns for one (team, benchmark) task.
//
// A fixed registry maps names to the baseline learners ("dt", "dt8",
// "espresso", "rf") so drivers, benches and tests can request them without
// linking against each learner's options struct. Portfolio teams are built
// by portfolio::team_factory (see portfolio/team.hpp), never by name.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "learn/learner.hpp"

namespace lsml::learn {

class LearnerFactory {
 public:
  using Fn = std::function<std::unique_ptr<Learner>()>;

  LearnerFactory() = default;
  LearnerFactory(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  /// Builds a fresh, independently-owned learner instance.
  [[nodiscard]] std::unique_ptr<Learner> make() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] explicit operator bool() const { return fn_ != nullptr; }

  // -------------------------------------------------------------- registry
  /// Looks up a registered factory; throws std::out_of_range if absent.
  static LearnerFactory from_registry(const std::string& key);

  /// Non-throwing lookup: returns an empty factory (operator bool false)
  /// when `key` is not registered. Lets drivers report bad names cleanly.
  static LearnerFactory try_from_registry(const std::string& key);

  /// Sorted names of every registered factory.
  static std::vector<std::string> registered();

 private:
  std::string name_;
  Fn fn_;
};

}  // namespace lsml::learn
