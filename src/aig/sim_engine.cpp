#include "aig/sim_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "aig/aig.hpp"
#include "obs/registry.hpp"

namespace lsml::aig {

void SimEngine::rebuild_schedule() {
  const Aig& g = *g_;
  const std::uint32_t num_nodes = g.num_nodes();
  const std::uint32_t first_and = g.num_pis() + 1;
  const std::size_t num_ands = num_nodes - first_and;
  gates_.clear();
  gates_.resize(num_ands);
  if (num_ands != 0) {
    // Counting sort into level-major order, stable by var within a level:
    // a topological order (fanin levels are strictly smaller) in which
    // adjacent gates are independent, so the kernel's stores never feed
    // the very next gate's loads.
    const std::vector<std::uint32_t> levels = g.levels();
    std::uint32_t max_level = 0;
    for (std::uint32_t v = first_and; v < num_nodes; ++v) {
      max_level = std::max(max_level, levels[v]);
    }
    std::vector<std::uint32_t> cursor(max_level + 2, 0);
    for (std::uint32_t v = first_and; v < num_nodes; ++v) {
      ++cursor[levels[v] + 1];
    }
    for (std::size_t l = 1; l < cursor.size(); ++l) {
      cursor[l] += cursor[l - 1];
    }
    for (std::uint32_t v = first_and; v < num_nodes; ++v) {
      gates_[cursor[levels[v]]++] = {v, g.fanin0(v), g.fanin1(v)};
    }
  }
  sched_graph_ = g_;
  sched_nodes_ = num_nodes;
}

namespace {

// Process-wide simulation telemetry. Registry references are resolved once
// and cached; the per-sweep cost is a handful of relaxed fetch_adds plus
// two steady_clock reads for the latency histogram — side-channel only,
// the swept bits are untouched.
struct SimMetrics {
  obs::Counter& sweeps;
  obs::Counter& rows;
  obs::Counter& words;
  obs::Histogram& sweep_ns;

  static SimMetrics& get() {
    static SimMetrics* m = [] {
      obs::Registry& reg = obs::Registry::instance();
      // Info metric: which simd kernel backend dispatch resolved to (one
      // series per backend that has actually swept in this process).
      reg.gauge(std::string("lsml_sim_kernel_info{backend=\"") +
                core::simd::ops().name + "\"}")
          .set(1);
      return new SimMetrics{reg.counter("lsml_sim_sweeps_total"),
                            reg.counter("lsml_sim_rows_total"),
                            reg.counter("lsml_sim_words_total"),
                            reg.histogram("lsml_sim_sweep_ns")};
    }();
    return *m;
  }
};

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

}  // namespace

void SimEngine::run(const std::vector<const core::BitVec*>& pi_values) {
  SimMetrics& metrics = SimMetrics::get();
  const auto start = std::chrono::steady_clock::now();
  const Aig& g = *g_;
  const std::uint32_t num_pis = g.num_pis();
  if (pi_values.size() < num_pis) {
    throw std::invalid_argument("SimEngine::run: not enough PI value vectors");
  }
  rows_ = num_pis == 0 ? 0 : pi_values[0]->size();
  wpr_ = (rows_ + 63) / 64;
  arena_.resize(static_cast<std::size_t>(g.num_nodes()) * wpr_);
  if (wpr_ == 0) {
    return;
  }
  const std::size_t rem = rows_ & 63;
  tail_mask_ = rem == 0 ? ~0ULL : ((1ULL << rem) - 1);
  std::uint64_t* const base = arena_.data();
  // Constant-false row.
  std::memset(base, 0, wpr_ * sizeof(std::uint64_t));
  for (std::uint32_t i = 0; i < num_pis; ++i) {
    const core::BitVec& column = *pi_values[i];
    if (column.size() != rows_) {
      throw std::invalid_argument("SimEngine::run: ragged PI value vectors");
    }
    std::memcpy(base + (static_cast<std::size_t>(i) + 1) * wpr_,
                column.words(), wpr_ * sizeof(std::uint64_t));
  }
  if (sched_graph_ != g_ || sched_nodes_ != g.num_nodes()) {
    rebuild_schedule();
  }
  core::simd::ops().sweep(base, wpr_, gates_.data(), gates_.size(),
                          tail_mask_);
  metrics.sweeps.add(1);
  metrics.rows.add(rows_);
  metrics.words.add(wpr_ * gates_.size());
  metrics.sweep_ns.record(
      ns_between(start, std::chrono::steady_clock::now()));
}

core::BitVec SimEngine::extract(Lit l) const {
  core::BitVec out;
  extract_into(l, &out);
  return out;
}

void SimEngine::extract_into(Lit l, core::BitVec* out) const {
  if (out->size() != rows_) {
    out->reset(rows_);
  }
  if (wpr_ == 0) {
    return;
  }
  const std::uint64_t* src = row(lit_var(l));
  std::uint64_t* dst = out->words();
  if (lit_compl(l)) {
    for (std::size_t w = 0; w < wpr_; ++w) {
      dst[w] = ~src[w];
    }
    out->mask_tail();
  } else {
    std::memcpy(dst, src, wpr_ * sizeof(std::uint64_t));
  }
}

std::vector<core::BitVec> SimEngine::outputs() const {
  std::vector<core::BitVec> result;
  outputs_into(&result);
  return result;
}

void SimEngine::outputs_into(std::vector<core::BitVec>* out) const {
  const std::vector<Lit>& outs = g_->outputs();
  out->resize(outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    extract_into(outs[i], &(*out)[i]);
  }
}

std::vector<core::BitVec> SimEngine::node_values() const {
  const std::uint32_t num_nodes = g_->num_nodes();
  std::vector<core::BitVec> result;
  result.reserve(num_nodes);
  for (std::uint32_t v = 0; v < num_nodes; ++v) {
    result.push_back(extract(make_lit(v, false)));
  }
  return result;
}

std::size_t SimEngine::count_ones(std::uint32_t var) const {
  return core::simd::ops().popcount(row(var), wpr_);
}

std::size_t SimEngine::count_equal(Lit l, const core::BitVec& ref) const {
  if (ref.size() != rows_) {
    throw std::invalid_argument("SimEngine::count_equal: row count mismatch");
  }
  const std::uint64_t* src = row(lit_var(l));
  std::size_t diff = core::simd::ops().popcount_xor(src, ref.words(), wpr_);
  if (lit_compl(l)) {
    // Complementing flips every word bit, tail included; those positions
    // do not exist, so discount them instead of re-masking the stream.
    diff = wpr_ * 64 - diff;
    if ((rows_ & 63) != 0) {
      diff -= 64 - (rows_ & 63);
    }
  }
  return rows_ - diff;
}

}  // namespace lsml::aig
