#include "portfolio/team.hpp"

#include <algorithm>
#include <cmath>

#include "aig/aig_build.hpp"
#include "feature/selection.hpp"
#include "learn/bdd.hpp"
#include "learn/boosting.hpp"
#include "learn/cgp.hpp"
#include "learn/dt.hpp"
#include "learn/espresso_learner.hpp"
#include "learn/forest.hpp"
#include "learn/fringe.hpp"
#include "learn/lutnet.hpp"
#include "learn/matching.hpp"
#include "learn/mlp.hpp"
#include "learn/rules.hpp"
#include "portfolio/contest.hpp"
#include "synth/pass_manager.hpp"
#include "tt/truth_table.hpp"

namespace lsml::portfolio {

using learn::TrainedModel;

learn::TrainedModel select_best_within_budget(
    std::vector<learn::TrainedModel> candidates, const data::Dataset& train,
    const data::Dataset& valid, std::uint32_t node_budget, core::Rng& rng) {
  TrainedModel* best = nullptr;  // the best within budget
  TrainedModel* best_any = nullptr;
  for (TrainedModel& c : candidates) {
    if (best_any == nullptr || c.valid_acc > best_any->valid_acc) {
      best_any = &c;
    }
    if (c.circuit.num_ands() <= node_budget &&
        (best == nullptr || c.valid_acc > best->valid_acc ||
         (c.valid_acc == best->valid_acc &&
          c.circuit.num_ands() < best->circuit.num_ands()))) {
      best = &c;
    }
  }
  if (best != nullptr) {
    return std::move(*best);
  }
  // Everything over budget: fit the best one to it (Team 1's method).
  TrainedModel& m = *best_any;
  synth::BudgetFit fit =
      synth::fit_to_budget(std::move(m.circuit), node_budget, rng);
  TrainedModel finished = learn::finish_model(
      std::move(fit.circuit), m.method + "+approx", train, valid);
  // The full story of this circuit: the candidate's own pipeline, then
  // the fit, then the post-fit re-finish.
  std::vector<synth::PassStats> trace = std::move(m.synth_trace);
  trace.insert(trace.end(), fit.trace.begin(), fit.trace.end());
  trace.insert(trace.end(), finished.synth_trace.begin(),
               finished.synth_trace.end());
  finished.synth_trace = std::move(trace);
  // The re-finish's certificate covers only the post-fit pipeline run,
  // never the candidate the team trained.
  finished.verified = synth::downgrade(finished.verified, fit.change);
  return finished;
}

namespace {

using learn::Learner;

/// Shared scaffolding: a team is a list of candidate learners plus the
/// "best under budget" selection rule.
class PortfolioTeam : public Learner {
 public:
  PortfolioTeam(std::string label, TeamOptions options)
      : label_(std::move(label)), options_(options) {}
  [[nodiscard]] std::string name() const override { return label_; }

  TrainedModel fit(const data::Dataset& train, const data::Dataset& valid,
                   core::Rng& rng) override {
    std::vector<TrainedModel> candidates = candidates_for(train, valid, rng);
    return select_best_within_budget(std::move(candidates), train, valid,
                                     options_.node_budget, rng);
  }

 protected:
  virtual std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                                   const data::Dataset& valid,
                                                   core::Rng& rng) = 0;

  [[nodiscard]] bool fast() const {
    return options_.scale != core::Scale::kFull;
  }

  std::string label_;
  TeamOptions options_;
};

// ---------------------------------------------------------------- Team 1
// Best of ESPRESSO / LUT network (beam search) / RF (4..16 estimators),
// preceded by standard-function matching; approximation if over budget.
class Team1 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    std::vector<TrainedModel> out;
    if (auto m = learn::match_standard_function(train, {})) {
      out.push_back(learn::finish_model(std::move(m->circuit),
                                        "t1:match:" + m->what, train, valid));
      if (out.back().circuit.num_ands() <= options_.node_budget) {
        return out;  // an exact structural match wins outright
      }
    }
    {
      sop::EspressoOptions eo;
      if (fast()) {
        eo.max_onset = 600;
        eo.max_offset = 1200;
      }
      learn::EspressoLearner espresso(eo, "t1:espresso");
      out.push_back(espresso.fit(train, valid, rng));
    }
    {
      learn::LutNetOptions start;
      start.num_layers = 2;
      start.luts_per_layer = fast() ? 64 : 256;
      start.lut_inputs = 4;
      const learn::LutNetwork net = learn::lutnet_beam_search(
          train, valid, start, rng, fast() ? 3 : 6);
      out.push_back(learn::finish_model(net.to_aig(train.num_inputs()),
                                        "t1:lutnet", train, valid));
    }
    const std::vector<std::size_t> estimators =
        fast() ? std::vector<std::size_t>{5, 9, 15}
               : std::vector<std::size_t>{5, 7, 9, 11, 13, 15};
    for (std::size_t n : estimators) {
      learn::ForestOptions fo;
      fo.num_trees = n;
      fo.tree.max_depth = 10;
      learn::ForestLearner rf(fo, "t1:rf" + std::to_string(n));
      out.push_back(rf.fit(train, valid, rng));
    }
    return out;
  }
};

// ---------------------------------------------------------------- Team 2
// WEKA J48 (C4.5) and PART rule lists; confidence-factor grid emulated by
// the minimum-instances-per-leaf grid the team also searched.
class Team2 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    std::vector<TrainedModel> out;
    const std::vector<std::size_t> min_leaf =
        fast() ? std::vector<std::size_t>{1, 4}
               : std::vector<std::size_t>{1, 2, 3, 4, 5, 10};
    for (std::size_t m : min_leaf) {
      learn::DtOptions dt;
      dt.min_samples_leaf = m;
      learn::DtLearner j48(dt, "t2:j48(m=" + std::to_string(m) + ")");
      out.push_back(j48.fit(train, valid, rng));
    }
    const std::vector<std::size_t> rule_caps =
        fast() ? std::vector<std::size_t>{48}
               : std::vector<std::size_t>{32, 64, 96};
    for (std::size_t cap : rule_caps) {
      learn::RuleListOptions ro;
      ro.max_rules = cap;
      learn::RuleListLearner part(ro, "t2:part(r=" + std::to_string(cap) + ")");
      out.push_back(part.fit(train, valid, rng));
    }
    return out;
  }
};

// ---------------------------------------------------------------- Team 3
// Three re-splits of train+valid; per split the best of {DT, Fr-DT, NN};
// final circuit is the 3-model majority vote.
class Team3 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    const data::Dataset merged = train.merged_with(valid);
    std::vector<TrainedModel> members;
    for (int part = 0; part < 3; ++part) {
      auto [part_train, part_valid] = merged.split(2.0 / 3.0, rng, true);
      std::vector<TrainedModel> local;
      {
        learn::DtOptions dt;
        dt.min_samples_leaf = 3;
        learn::DtLearner learner(dt, "t3:dt");
        local.push_back(learner.fit(part_train, part_valid, rng));
      }
      {
        learn::FringeOptions fo;
        fo.dt.min_samples_leaf = 3;
        fo.max_iterations = fast() ? 4 : 8;
        learn::FringeLearner learner(fo, "t3:fr-dt");
        local.push_back(learner.fit(part_train, part_valid, rng));
      }
      if (!fast() || part == 0) {  // NN on one split at reduced scale
        learn::MlpOptions mo;
        mo.hidden = {24, 12};
        mo.epochs = fast() ? 10 : 24;
        learn::MlpLearner learner(mo, "t3:nn");
        local.push_back(learner.fit(part_train, part_valid, rng));
      }
      members.push_back(select_best_within_budget(
          std::move(local), part_train, part_valid, options_.node_budget,
          rng));
    }
    // Majority-vote ensemble of the three selected models.
    aig::Aig ensemble(static_cast<std::uint32_t>(train.num_inputs()));
    std::vector<aig::Lit> outs;
    outs.reserve(members.size());
    for (const auto& m : members) {
      outs.push_back(aig::append_aig(ensemble, m.circuit));
    }
    ensemble.add_output(ensemble.maj3(outs[0], outs[1], outs[2]));
    std::vector<TrainedModel> out;
    // One pipeline invocation on the combined circuit; the members were
    // already finished, so re-optimizing them separately would be waste.
    out.push_back(learn::finish_model(std::move(ensemble), "t3:ensemble",
                                      train, valid));
    for (auto& m : members) {
      out.push_back(std::move(m));  // fall back to singles if too big
    }
    return out;
  }
};

// ---------------------------------------------------------------- Team 4
// Multi-level feature selection + DNN approximator + subspace expansion:
// predict the full 2^d hypercube over the selected features, treat pruned
// inputs as don't-cares, minimize, and search accuracy-vs-nodes.
class Team4 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    std::vector<TrainedModel> out;
    const std::vector<std::size_t> dims =
        fast() ? std::vector<std::size_t>{12, 14}
               : std::vector<std::size_t>{10, 11, 12, 13, 14, 15, 16};
    // Level-1 ranking: ensemble (forest) importance; level 2: chi2.
    learn::ForestOptions fo;
    fo.num_trees = fast() ? 9 : 25;
    fo.tree.max_depth = 8;
    const learn::RandomForest ranker =
        learn::RandomForest::fit(train, fo, rng);
    const auto forest_scores = ranker.feature_importance(train.num_inputs());
    const auto chi2 = feature::chi2_scores(train);
    for (const std::size_t d : dims) {
      for (int level = 0; level < 2; ++level) {
        const auto& scores = level == 0 ? forest_scores : chi2;
        const auto feats = feature::select_k_best(
            scores, std::min(d, train.num_inputs()));
        out.push_back(subspace_model(train, valid, feats, rng, level));
      }
    }
    return out;
  }

 private:
  TrainedModel subspace_model(const data::Dataset& train,
                              const data::Dataset& valid,
                              const std::vector<std::size_t>& feats,
                              core::Rng& rng, int level) {
    const data::Dataset reduced = train.select_columns(feats);
    learn::MlpOptions mo;
    mo.hidden = {32, 16};
    mo.epochs = fast() ? 10 : 20;
    mo.max_input_features = feats.size();
    learn::Mlp net = learn::Mlp::fit(reduced, mo, rng);
    // Subspace expansion: query the model on every vertex of the selected
    // hypercube; everything else is don't-care by construction.
    // Row p of the probe is vertex p, so prediction bit p is table bit p.
    const int d = static_cast<int>(feats.size());
    const std::uint64_t vertices = 1ULL << d;
    data::Dataset probe(feats.size(), vertices);
    for (std::uint64_t p = 0; p < vertices; ++p) {
      for (int i = 0; i < d; ++i) {
        probe.set_input(p, static_cast<std::size_t>(i), (p >> i) & 1);
      }
    }
    const core::BitVec predicted = net.predict(probe);
    tt::TruthTable f(d);
    for (std::uint64_t p = 0; p < vertices; ++p) {
      if (predicted.get(p)) {
        f.set(p, true);
      }
    }
    aig::Aig g(static_cast<std::uint32_t>(train.num_inputs()));
    std::vector<aig::Lit> leaves;
    leaves.reserve(feats.size());
    for (std::size_t v : feats) {
      leaves.push_back(g.pi(static_cast<std::uint32_t>(v)));
    }
    g.add_output(aig::from_truth_table(g, f, leaves));
    return learn::finish_model(
        std::move(g),
        "t4:afn(d=" + std::to_string(d) + ",l=" + std::to_string(level) + ")",
        train, valid);
  }
};

// ---------------------------------------------------------------- Team 5
// DTs (depth 10/20) and 3-tree RFs with SelectKBest/SelectPercentile over
// three scoring functions, plus the NN-guided 4-feature expression search.
class Team5 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    std::vector<TrainedModel> out;
    const auto chi2 = feature::chi2_scores(train);
    const auto mi = feature::mutual_information(train);
    const auto corr = feature::correlation_scores(train);
    const std::vector<const std::vector<double>*> scorers =
        fast() ? std::vector<const std::vector<double>*>{&chi2}
               : std::vector<const std::vector<double>*>{&chi2, &mi, &corr};
    const std::vector<double> percentiles =
        fast() ? std::vector<double>{50} : std::vector<double>{25, 50, 75};

    std::vector<std::vector<std::size_t>> feature_sets;
    {
      std::vector<std::size_t> all(train.num_inputs());
      for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = i;
      }
      feature_sets.push_back(std::move(all));
    }
    for (const auto* s : scorers) {
      for (double pct : percentiles) {
        feature_sets.push_back(feature::select_percentile(*s, pct));
      }
    }
    const std::vector<std::size_t> depths =
        fast() ? std::vector<std::size_t>{10} : std::vector<std::size_t>{10, 20};
    for (const auto& feats : feature_sets) {
      const data::Dataset sub_train = train.select_columns(feats);
      const data::Dataset sub_valid = valid.select_columns(feats);
      for (std::size_t depth : depths) {
        learn::DtOptions dt;
        dt.max_depth = depth;
        dt.criterion = learn::DtOptions::Criterion::kGini;  // scikit default
        const learn::DecisionTree tree =
            learn::DecisionTree::fit(sub_train, dt, rng);
        out.push_back(remap(tree.to_aig(feats.size()), feats, train, valid,
                            "t5:dt(d=" + std::to_string(depth) + ")"));
      }
      {
        learn::ForestOptions fo;
        fo.num_trees = 3;
        fo.tree.max_depth = 10;
        fo.tree.criterion = learn::DtOptions::Criterion::kGini;
        const learn::RandomForest rf =
            learn::RandomForest::fit(sub_train, fo, rng);
        out.push_back(remap(rf.to_aig(feats.size()), feats, train, valid,
                            "t5:rf3"));
      }
      if (fast()) {
        break;  // a single feature-selected pass at reduced scale
      }
    }
    out.push_back(expression_search(train, valid, rng));
    return out;
  }

 private:
  /// Rebuilds a circuit over the full input space from a reduced-column one.
  static TrainedModel remap(const aig::Aig& reduced,
                            const std::vector<std::size_t>& feats,
                            const data::Dataset& train,
                            const data::Dataset& valid, std::string label) {
    aig::Aig g(static_cast<std::uint32_t>(train.num_inputs()));
    // append_aig maps PI i -> PI i; build a wrapper with permuted inputs.
    aig::Aig permuted(static_cast<std::uint32_t>(train.num_inputs()));
    std::vector<aig::Lit> map(reduced.num_nodes(), aig::kLitFalse);
    for (std::uint32_t i = 0; i < reduced.num_pis(); ++i) {
      map[i + 1] = permuted.pi(static_cast<std::uint32_t>(feats[i]));
    }
    for (std::uint32_t v = reduced.num_pis() + 1; v < reduced.num_nodes();
         ++v) {
      const aig::Node& n = reduced.node(v);
      map[v] = permuted.and2(
          aig::lit_notc(map[aig::lit_var(n.fanin0)], aig::lit_compl(n.fanin0)),
          aig::lit_notc(map[aig::lit_var(n.fanin1)],
                        aig::lit_compl(n.fanin1)));
    }
    const aig::Lit out = reduced.output(0);
    permuted.add_output(
        aig::lit_notc(map[aig::lit_var(out)], aig::lit_compl(out)));
    return learn::finish_model(std::move(permuted), std::move(label), train,
                               valid);
  }

  /// NN-derived top-4 features + exhaustive small expression search
  /// (the team's 792-expression scan over OR/XOR/AND/NOT combinations).
  TrainedModel expression_search(const data::Dataset& train,
                                 const data::Dataset& valid, core::Rng& rng) {
    learn::MlpOptions mo;
    mo.hidden = {16};
    mo.epochs = fast() ? 6 : 12;
    mo.max_input_features = std::min<std::size_t>(train.num_inputs(), 32);
    const learn::Mlp net = learn::Mlp::fit(train, mo, rng);
    // Importance proxy: the MLP's selected features are already MI-ranked;
    // take its first four inputs as the high-weight subset.
    std::vector<std::size_t> feats = net.selected_features();
    if (feats.size() > 4) {
      feats.resize(4);
    }
    while (feats.size() < 4) {
      feats.push_back(feats.empty() ? 0 : feats.back());
    }
    // Enumerate ((a . b) . c) . d and (a . b) . (c . d) over {AND,OR,XOR}
    // with all leaf negations: 2 shapes x 27 op triples x 16 negations.
    const std::uint16_t var_tt[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};
    const auto apply_op = [](int op, std::uint16_t x, std::uint16_t y) {
      return op == 0 ? static_cast<std::uint16_t>(x & y)
             : op == 1 ? static_cast<std::uint16_t>(x | y)
                       : static_cast<std::uint16_t>(x ^ y);
    };
    // Row patterns for accuracy evaluation.
    std::vector<std::uint8_t> pattern(train.num_rows());
    for (std::size_t r = 0; r < train.num_rows(); ++r) {
      std::uint8_t p = 0;
      for (int i = 0; i < 4; ++i) {
        p |= static_cast<std::uint8_t>(
                 train.input(r, feats[static_cast<std::size_t>(i)]) ? 1 : 0)
             << i;
      }
      pattern[r] = p;
    }
    std::uint16_t best_tt = 0;
    std::size_t best_correct = 0;
    for (int shape = 0; shape < 2; ++shape) {
      for (int ops = 0; ops < 27; ++ops) {
        for (int negs = 0; negs < 16; ++negs) {
          std::uint16_t leaf[4];
          for (int i = 0; i < 4; ++i) {
            leaf[i] = (negs >> i) & 1
                          ? static_cast<std::uint16_t>(~var_tt[i])
                          : var_tt[i];
          }
          const int op1 = ops % 3;
          const int op2 = (ops / 3) % 3;
          const int op3 = ops / 9;
          std::uint16_t tt_val = 0;
          if (shape == 0) {
            tt_val = apply_op(
                op3, apply_op(op2, apply_op(op1, leaf[0], leaf[1]), leaf[2]),
                leaf[3]);
          } else {
            tt_val = apply_op(op3, apply_op(op1, leaf[0], leaf[1]),
                              apply_op(op2, leaf[2], leaf[3]));
          }
          std::size_t correct = 0;
          for (std::size_t r = 0; r < train.num_rows(); ++r) {
            const bool pred = (tt_val >> pattern[r]) & 1;
            correct += pred == train.label(r) ? 1 : 0;
          }
          if (correct > best_correct) {
            best_correct = correct;
            best_tt = tt_val;
          }
        }
      }
    }
    tt::TruthTable f(4);
    for (std::uint64_t p = 0; p < 16; ++p) {
      f.set(p, (best_tt >> p) & 1);
    }
    aig::Aig g(static_cast<std::uint32_t>(train.num_inputs()));
    std::vector<aig::Lit> leaves;
    for (std::size_t v : feats) {
      leaves.push_back(g.pi(static_cast<std::uint32_t>(v)));
    }
    g.add_output(aig::from_truth_table(g, f, leaves));
    return learn::finish_model(std::move(g), "t5:nn-expr", train, valid);
  }
};

// ---------------------------------------------------------------- Team 6
// Pure LUT-network memorization with the two wiring schemes and a small
// hyper-parameter sweep (4-input LUTs won on average, per the paper).
class Team6 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    std::vector<TrainedModel> out;
    const std::vector<int> widths = fast() ? std::vector<int>{64}
                                           : std::vector<int>{64, 128, 256};
    const std::vector<int> depths =
        fast() ? std::vector<int>{2} : std::vector<int>{2, 4, 8};
    for (const auto wiring :
         {learn::LutWiring::kRandom, learn::LutWiring::kUniqueRandom}) {
      for (int width : widths) {
        for (int depth : depths) {
          learn::LutNetOptions lo;
          lo.lut_inputs = 4;
          lo.luts_per_layer = width;
          lo.num_layers = depth;
          lo.wiring = wiring;
          learn::LutNetLearner learner(
              lo, std::string("t6:lutnet(") +
                      (wiring == learn::LutWiring::kRandom ? "rand" : "uniq") +
                      "," + std::to_string(width) + "x" +
                      std::to_string(depth) + ")");
          out.push_back(learner.fit(train, valid, rng));
        }
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------- Team 7
// Function matching first; otherwise DT vs XGBoost by validation, with the
// majority-gate aggregation for the boosted model.
class Team7 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    std::vector<TrainedModel> out;
    if (auto m = learn::match_standard_function(train, {})) {
      out.push_back(learn::finish_model(std::move(m->circuit),
                                        "t7:match:" + m->what, train, valid));
      if (out.back().circuit.num_ands() <= options_.node_budget) {
        return out;
      }
    }
    {
      learn::DtOptions dt;  // unlimited depth, as in the paper
      learn::DtLearner learner(dt, "t7:dt");
      out.push_back(learner.fit(train, valid, rng));
    }
    {
      learn::BoostOptions bo;
      bo.num_trees = fast() ? 45 : 125;
      bo.max_depth = fast() ? 4 : 5;
      learn::BoostLearner learner(
          bo, "t7:xgb" + std::to_string(bo.num_trees));
      out.push_back(learner.fit(train, valid, rng));
    }
    return out;
  }
};

// ---------------------------------------------------------------- Team 8
// Bucket of models: C4.5 with functional decomposition, 17x8 RF, and an
// MLP with periodic (sine) activation for narrow benchmarks.
class Team8 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    std::vector<TrainedModel> out;
    for (const double tau : fast() ? std::vector<double>{0.05}
                                   : std::vector<double>{0.02, 0.05, 0.1}) {
      learn::DtOptions dt;
      dt.min_samples_leaf = 4;
      dt.decomposition_threshold = tau;
      learn::DtLearner learner(dt, "t8:bdt(tau=" + std::to_string(tau) + ")");
      out.push_back(learner.fit(train, valid, rng));
    }
    {
      learn::ForestOptions fo;
      fo.num_trees = 17;
      fo.tree.max_depth = 8;
      learn::ForestLearner learner(fo, "t8:rf17x8");
      out.push_back(learner.fit(train, valid, rng));
    }
    if (train.num_inputs() <= 20) {
      for (const auto act : {learn::Activation::kSin,
                             learn::Activation::kSigmoid}) {
        learn::MlpOptions mo;
        mo.hidden = {16, 8};
        mo.activation = act;
        mo.epochs = fast() ? 12 : 30;
        learn::MlpLearner learner(
            mo, act == learn::Activation::kSin ? "t8:mlp-sin" : "t8:mlp");
        out.push_back(learner.fit(train, valid, rng));
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------- Team 9
// Bootstrapped CGP: seed with the better of DT / ESPRESSO when it clears
// 55% training accuracy, otherwise evolve from random genomes.
class Team9 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    // Bootstrap half: DT trained on half the training set (the paper's
    // 40-40/20 format), CGP fine-tunes on the rest.
    auto [boot_half, cgp_half] = train.split(0.5, rng, true);
    learn::DtOptions dt;
    dt.max_depth = 8;
    const learn::DecisionTree tree =
        learn::DecisionTree::fit(boot_half, dt, rng);
    aig::Aig seed = tree.to_aig(train.num_inputs());

    learn::CgpOptions co;
    co.genome_nodes = fast() ? 300 : 500;
    co.generations = fast() ? 1200 : 10000;
    co.minibatch = 1024;
    co.change_batch_every = fast() ? 400 : 1000;
    learn::CgpLearner learner(co, std::move(seed), "t9:cgp");
    std::vector<TrainedModel> out;
    out.push_back(learner.fit(cgp_half, valid, rng));
    // Always keep the plain bootstrap as a fallback candidate.
    out.push_back(learn::finish_model(tree.to_aig(train.num_inputs()),
                                      "t9:dt-boot", train, valid));
    return out;
  }
};

// ---------------------------------------------------------------- Team 10
// Depth-8 DT; if validation accuracy < 70%, merge the validation set into
// training and retrain (the paper's augmentation rule).
class Team10 final : public PortfolioTeam {
 public:
  using PortfolioTeam::PortfolioTeam;

 protected:
  std::vector<TrainedModel> candidates_for(const data::Dataset& train,
                                           const data::Dataset& valid,
                                           core::Rng& rng) override {
    learn::DtOptions dt;
    dt.max_depth = 8;
    learn::DtLearner learner(dt, "t10:dt8");
    TrainedModel first = learner.fit(train, valid, rng);
    std::vector<TrainedModel> out;
    if (first.valid_acc < 0.70) {
      const data::Dataset merged = train.merged_with(valid);
      learn::DtLearner retrained(dt, "t10:dt8+aug");
      out.push_back(retrained.fit(merged, valid, rng));
    } else {
      out.push_back(std::move(first));
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<learn::Learner> make_team(int number,
                                          const TeamOptions& options) {
  const std::string label = "team" + std::to_string(number);
  switch (number) {
    case 1:
      return std::make_unique<Team1>(label, options);
    case 2:
      return std::make_unique<Team2>(label, options);
    case 3:
      return std::make_unique<Team3>(label, options);
    case 4:
      return std::make_unique<Team4>(label, options);
    case 5:
      return std::make_unique<Team5>(label, options);
    case 6:
      return std::make_unique<Team6>(label, options);
    case 7:
      return std::make_unique<Team7>(label, options);
    case 8:
      return std::make_unique<Team8>(label, options);
    case 9:
      return std::make_unique<Team9>(label, options);
    case 10:
      return std::make_unique<Team10>(label, options);
    default:
      throw std::invalid_argument("make_team: unknown team number");
  }
}

learn::LearnerFactory team_factory(int number, const TeamOptions& options) {
  if (number < 1 || number > 10) {
    throw std::invalid_argument("team_factory: unknown team number");
  }
  return learn::LearnerFactory(
      "team" + std::to_string(number),
      [number, options] { return make_team(number, options); });
}

void register_team_factories(const TeamOptions& options) {
  for (const int t : all_team_numbers()) {
    learn::LearnerFactory::register_factory(
        "team" + std::to_string(t),
        [t, options] { return make_team(t, options); });
  }
}

std::vector<ContestEntry> contest_entries(const std::vector<int>& teams,
                                          const TeamOptions& options) {
  std::vector<ContestEntry> entries;
  entries.reserve(teams.size());
  for (const int t : teams) {
    entries.push_back({t, team_factory(t, options)});
  }
  return entries;
}

std::vector<int> all_team_numbers() { return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; }

std::vector<TechniqueRow> technique_matrix() {
  // Fig. 1 of the paper: representations used by each team.
  return {
      {1, true, true, false, true, false, true},
      {2, true, true, false, false, false, false},
      {3, false, true, true, true, false, false},
      {4, true, false, true, false, false, false},
      {5, true, true, true, false, false, false},
      {6, true, false, false, true, false, false},
      {7, true, true, false, false, false, true},
      {8, false, true, true, false, false, false},
      {9, true, true, false, false, true, false},
      {10, false, true, false, false, false, false},
  };
}

}  // namespace lsml::portfolio
