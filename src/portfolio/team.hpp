#pragma once
// The ten team strategies of the IWLS 2020 contest, as Learner portfolios.
//
// Each team is reproduced from its description in the paper (Section IV and
// the appendix): the model families it trained, the hyper-parameter grids it
// explored, its selection rule, and its fallback when the 5000-AND budget is
// exceeded. Grid sizes shrink at smoke/fast scale (see core::ScaleConfig);
// the portfolio structure is identical at every scale.

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "learn/factory.hpp"
#include "learn/learner.hpp"

namespace lsml::portfolio {

struct ContestEntry;  // portfolio/contest.hpp

struct TeamOptions {
  core::Scale scale = core::Scale::kFast;
  std::uint32_t node_budget = 5000;
  std::uint64_t seed = 1;
};

/// Builds team `number` (1..10).
std::unique_ptr<learn::Learner> make_team(int number,
                                          const TeamOptions& options);

/// Factory for team `number`: each make() builds an independent instance,
/// which is what the parallel contest engine hands to each worker. Pure —
/// no global state is touched.
learn::LearnerFactory team_factory(int number, const TeamOptions& options);

/// Contest entries for the given team numbers (convenience for
/// suite::run_contest_on; pass all_team_numbers() for the full contest).
std::vector<ContestEntry> contest_entries(const std::vector<int>& teams,
                                          const TeamOptions& options);

/// All contest team numbers.
std::vector<int> all_team_numbers();

/// Technique matrix of Fig. 1: which representations each team used.
struct TechniqueRow {
  int team = 0;
  bool sop = false;       ///< SOP / ESPRESSO
  bool dt_rf = false;     ///< decision trees / random forests
  bool nn = false;        ///< neural networks
  bool lut = false;       ///< LUT networks
  bool cgp = false;       ///< evolutionary / CGP
  bool matching = false;  ///< pre-defined function matching
};
std::vector<TechniqueRow> technique_matrix();

/// Picks the best model by validation accuracy subject to the node budget;
/// if every candidate is over budget, the best one goes through
/// synth::fit_to_budget (Team 1's fallback) and is finished again.
learn::TrainedModel select_best_within_budget(
    std::vector<learn::TrainedModel> candidates, const data::Dataset& train,
    const data::Dataset& valid, std::uint32_t node_budget, core::Rng& rng);

}  // namespace lsml::portfolio
