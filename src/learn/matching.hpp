#pragma once
// Pre-defined standard-function matching (Teams 1 & 7).
//
// Before any ML, the training data is checked against a library of
// parameterized standard functions using the contest's known input layout
// (operand words LSB-to-MSB, a then b). On an exact match the function's
// textbook AIG is emitted directly — "the most important method in the
// contest" per Team 1. The library covers constants, single literals,
// pairwise XORs, totally symmetric functions (which subsumes parity),
// adder output bits, comparators, and small multipliers.

#include <optional>
#include <string>

#include "learn/learner.hpp"

namespace lsml::learn {

struct MatchOptions {
  /// Minimum training agreement to accept a match (1.0 = exact).
  double min_agreement = 1.0;
  /// Pairwise-XOR scan limit (quadratic in inputs).
  std::size_t max_inputs_for_xor_scan = 256;
  /// Multipliers wider than this are not constructible within the node
  /// budget (the paper reached the same conclusion).
  std::size_t max_multiplier_width = 16;
};

struct MatchResult {
  std::string what;  ///< e.g. "adder[k=16,bit=16]"
  aig::Aig circuit{0};
};

/// Tries the library; returns the matched circuit or nullopt.
std::optional<MatchResult> match_standard_function(const data::Dataset& train,
                                                   const MatchOptions& options);

}  // namespace lsml::learn
