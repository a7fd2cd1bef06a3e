#include "learn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "aig/aig_build.hpp"
#include "feature/selection.hpp"
#include "tt/truth_table.hpp"

namespace lsml::learn {

namespace {

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double act(double z, Activation a) {
  return a == Activation::kSin ? std::sin(z) : sigmoid(z);
}

double act_grad(double z, Activation a) {
  if (a == Activation::kSin) {
    return std::cos(z);
  }
  const double s = sigmoid(z);
  return s * (1.0 - s);
}

/// Binarization threshold used during LUT conversion: "rounding the
/// activation" means output 1 iff the activation exceeds its midpoint,
/// which for both sigmoid and sine is z such that act(z) >= act-midpoint.
bool act_bit(double z, Activation a) {
  return a == Activation::kSin ? std::sin(z) >= 0.0 : z >= 0.0;
}

}  // namespace

void Mlp::load_row(const data::Dataset& ds, std::size_t r,
                   std::vector<double>& x) const {
  for (std::size_t i = 0; i < selected_.size(); ++i) {
    x[i] = ds.input(r, selected_[i]) ? 1.0 : 0.0;
  }
}

std::size_t Mlp::max_width() const {
  std::size_t width = selected_.size();
  for (const Layer& layer : layers_) {
    width = std::max(width, static_cast<std::size_t>(layer.out_dim));
  }
  return width;
}

double Mlp::forward_row(std::vector<double>& cur,
                        std::vector<double>& next) const {
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool last = l + 1 == layers_.size();
    for (int o = 0; o < layer.out_dim; ++o) {
      double z = layer.b[static_cast<std::size_t>(o)];
      const std::size_t base =
          static_cast<std::size_t>(o) * static_cast<std::size_t>(layer.in_dim);
      for (int i = 0; i < layer.in_dim; ++i) {
        const std::size_t wi = base + static_cast<std::size_t>(i);
        if (layer.mask[wi]) {
          z += layer.w[wi] * cur[static_cast<std::size_t>(i)];
        }
      }
      // The output neuron is always sigmoid (probability); hidden neurons
      // use the configured activation.
      next[static_cast<std::size_t>(o)] =
          last ? sigmoid(z) : act(z, activation_);
    }
    cur.swap(next);
  }
  return cur[0];
}

Mlp Mlp::fit(const data::Dataset& ds, const MlpOptions& options,
             core::Rng& rng) {
  Mlp net;
  net.activation_ = options.activation;
  net.learning_rate_ = options.learning_rate;
  net.momentum_ = options.momentum;
  net.prune_max_fanin_ = options.prune_max_fanin;
  net.prune_retrain_epochs_ = options.prune_retrain_epochs;

  if (ds.num_inputs() > options.max_input_features) {
    const auto scores = feature::mutual_information(ds);
    net.selected_ = feature::select_k_best(scores, options.max_input_features);
  } else {
    net.selected_.resize(ds.num_inputs());
    std::iota(net.selected_.begin(), net.selected_.end(), 0);
  }

  std::vector<int> dims;
  dims.push_back(static_cast<int>(net.selected_.size()));
  for (int h : options.hidden) {
    dims.push_back(h);
  }
  dims.push_back(1);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    Layer layer;
    layer.in_dim = dims[l];
    layer.out_dim = dims[l + 1];
    const auto n = static_cast<std::size_t>(layer.in_dim) *
                   static_cast<std::size_t>(layer.out_dim);
    layer.w.resize(n);
    layer.mask.assign(n, 1);
    layer.vw.assign(n, 0.0);
    layer.b.assign(static_cast<std::size_t>(layer.out_dim), 0.0);
    layer.vb.assign(static_cast<std::size_t>(layer.out_dim), 0.0);
    const double scale = std::sqrt(2.0 / layer.in_dim);
    for (auto& w : layer.w) {
      w = rng.gaussian() * scale;
    }
    net.layers_.push_back(std::move(layer));
  }
  net.train_epochs(ds, options.epochs, rng);
  return net;
}

void Mlp::train_epochs(const data::Dataset& ds, int epochs, core::Rng& rng) {
  const std::size_t n = ds.num_rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Per-layer forward caches and the backward pass's two delta rows, all
  // sized once: as[l] feeds layer l, zs[l] holds its pre-activations.
  std::vector<std::vector<double>> zs(layers_.size());
  std::vector<std::vector<double>> as(layers_.size() + 1);
  as[0].resize(selected_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    zs[l].resize(static_cast<std::size_t>(layers_[l].out_dim));
    as[l + 1].resize(static_cast<std::size_t>(layers_[l].out_dim));
  }
  std::vector<double> delta(max_width());
  std::vector<double> prev_delta(max_width());

  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    const double lr = learning_rate_ / (1.0 + 0.15 * epoch);
    for (std::size_t idx = 0; idx < n; ++idx) {
      const std::size_t r = order[idx];
      load_row(ds, r, as[0]);
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        const Layer& layer = layers_[l];
        const bool last = l + 1 == layers_.size();
        for (int o = 0; o < layer.out_dim; ++o) {
          double z = layer.b[static_cast<std::size_t>(o)];
          const std::size_t base = static_cast<std::size_t>(o) *
                                   static_cast<std::size_t>(layer.in_dim);
          for (int j = 0; j < layer.in_dim; ++j) {
            const std::size_t wi = base + static_cast<std::size_t>(j);
            if (layer.mask[wi]) {
              z += layer.w[wi] * as[l][static_cast<std::size_t>(j)];
            }
          }
          zs[l][static_cast<std::size_t>(o)] = z;
          as[l + 1][static_cast<std::size_t>(o)] =
              last ? sigmoid(z) : act(z, activation_);
        }
      }
      // Backward: BCE with logistic output -> delta = p - y.
      const double y = ds.label(r) ? 1.0 : 0.0;
      delta[0] = as.back()[0] - y;
      for (std::size_t l = layers_.size(); l-- > 0;) {
        Layer& layer = layers_[l];
        std::fill_n(prev_delta.begin(), layer.in_dim, 0.0);
        for (int o = 0; o < layer.out_dim; ++o) {
          const double d = delta[static_cast<std::size_t>(o)];
          const std::size_t base = static_cast<std::size_t>(o) *
                                   static_cast<std::size_t>(layer.in_dim);
          for (int j = 0; j < layer.in_dim; ++j) {
            const std::size_t wi = base + static_cast<std::size_t>(j);
            if (!layer.mask[wi]) {
              continue;
            }
            prev_delta[static_cast<std::size_t>(j)] += layer.w[wi] * d;
            layer.vw[wi] = momentum_ * layer.vw[wi] -
                           lr * d * as[l][static_cast<std::size_t>(j)];
            layer.w[wi] += layer.vw[wi];
          }
          layer.vb[static_cast<std::size_t>(o)] =
              momentum_ * layer.vb[static_cast<std::size_t>(o)] - lr * d;
          layer.b[static_cast<std::size_t>(o)] +=
              layer.vb[static_cast<std::size_t>(o)];
        }
        if (l > 0) {
          for (int j = 0; j < layer.in_dim; ++j) {
            prev_delta[static_cast<std::size_t>(j)] *=
                act_grad(zs[l - 1][static_cast<std::size_t>(j)], activation_);
          }
          delta.swap(prev_delta);
        }
      }
    }
  }
}

core::BitVec Mlp::predict(const data::Dataset& ds) const {
  core::BitVec out(ds.num_rows());
  std::vector<double> cur(max_width());
  std::vector<double> next(max_width());
  for (std::size_t r = 0; r < ds.num_rows(); ++r) {
    load_row(ds, r, cur);
    if (forward_row(cur, next) >= 0.5) {
      out.set(r, true);
    }
  }
  return out;
}

std::size_t Mlp::max_fanin() const {
  std::size_t worst = 0;
  for (const Layer& layer : layers_) {
    for (int o = 0; o < layer.out_dim; ++o) {
      std::size_t fanin = 0;
      const std::size_t base = static_cast<std::size_t>(o) *
                               static_cast<std::size_t>(layer.in_dim);
      for (int j = 0; j < layer.in_dim; ++j) {
        fanin += layer.mask[base + static_cast<std::size_t>(j)];
      }
      worst = std::max(worst, fanin);
    }
  }
  return worst;
}

void Mlp::prune_to_fanin(const data::Dataset& ds, core::Rng& rng) {
  const auto target = static_cast<std::size_t>(prune_max_fanin_);
  while (max_fanin() > target) {
    for (Layer& layer : layers_) {
      for (int o = 0; o < layer.out_dim; ++o) {
        const std::size_t base = static_cast<std::size_t>(o) *
                                 static_cast<std::size_t>(layer.in_dim);
        std::vector<std::size_t> alive;
        for (int j = 0; j < layer.in_dim; ++j) {
          if (layer.mask[base + static_cast<std::size_t>(j)]) {
            alive.push_back(base + static_cast<std::size_t>(j));
          }
        }
        if (alive.size() <= target) {
          continue;
        }
        // Keep the largest-magnitude 60% (but at least `target`).
        const std::size_t keep =
            std::max(target, alive.size() * 6 / 10);
        std::sort(alive.begin(), alive.end(),
                  [&](std::size_t a, std::size_t b) {
                    return std::abs(layer.w[a]) > std::abs(layer.w[b]);
                  });
        for (std::size_t i = keep; i < alive.size(); ++i) {
          layer.mask[alive[i]] = 0;
          layer.w[alive[i]] = 0.0;
        }
      }
    }
    train_epochs(ds, prune_retrain_epochs_, rng);
  }
}

aig::Aig Mlp::to_aig(std::size_t num_inputs) const {
  aig::Aig g(static_cast<std::uint32_t>(num_inputs));
  std::vector<aig::Lit> values;
  values.reserve(selected_.size());
  for (std::size_t f : selected_) {
    values.push_back(g.pi(static_cast<std::uint32_t>(f)));
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<aig::Lit> next(static_cast<std::size_t>(layer.out_dim));
    for (int o = 0; o < layer.out_dim; ++o) {
      const std::size_t base = static_cast<std::size_t>(o) *
                               static_cast<std::size_t>(layer.in_dim);
      std::vector<std::size_t> alive;
      for (int j = 0; j < layer.in_dim; ++j) {
        if (layer.mask[base + static_cast<std::size_t>(j)]) {
          alive.push_back(static_cast<std::size_t>(j));
        }
      }
      // Enumerate all assignments of the live fanins; threshold activation.
      const int m = static_cast<int>(alive.size());
      tt::TruthTable table(m);
      for (std::uint64_t p = 0; p < (1ULL << m); ++p) {
        double z = layer.b[static_cast<std::size_t>(o)];
        for (int j = 0; j < m; ++j) {
          if (p & (1ULL << j)) {
            z += layer.w[base + alive[static_cast<std::size_t>(j)]];
          }
        }
        const bool last = l + 1 == layers_.size();
        table.set(p, last ? z >= 0.0 : act_bit(z, activation_));
      }
      std::vector<aig::Lit> leaves;
      leaves.reserve(alive.size());
      for (std::size_t j : alive) {
        leaves.push_back(values[j]);
      }
      next[static_cast<std::size_t>(o)] =
          aig::from_truth_table(g, table, leaves);
    }
    values = std::move(next);
  }
  g.add_output(values[0]);
  return g;
}

TrainedModel MlpLearner::fit(const data::Dataset& train,
                             const data::Dataset& valid, core::Rng& rng) {
  Mlp net = Mlp::fit(train, options_, rng);
  net.prune_to_fanin(train, rng);
  return finish_model(net.to_aig(train.num_inputs()), label_, train, valid);
}

MlpStageAccuracy mlp_staged_accuracy(const data::Dataset& train,
                                     const data::Dataset& valid,
                                     const data::Dataset& test,
                                     const MlpOptions& options,
                                     core::Rng& rng) {
  MlpStageAccuracy stages;
  Mlp net = Mlp::fit(train, options, rng);
  stages.initial_train = data::accuracy(net.predict(train), train.labels());
  stages.initial_valid = data::accuracy(net.predict(valid), valid.labels());
  stages.initial_test = data::accuracy(net.predict(test), test.labels());
  net.prune_to_fanin(train, rng);
  stages.pruned_train = data::accuracy(net.predict(train), train.labels());
  stages.pruned_valid = data::accuracy(net.predict(valid), valid.labels());
  stages.pruned_test = data::accuracy(net.predict(test), test.labels());
  const aig::Aig circuit = net.to_aig(train.num_inputs());
  aig::SimEngine engine(circuit);
  stages.synth_train = circuit_accuracy(engine, train);
  stages.synth_valid = circuit_accuracy(engine, valid);
  stages.synth_test = circuit_accuracy(engine, test);
  return stages;
}

}  // namespace lsml::learn
