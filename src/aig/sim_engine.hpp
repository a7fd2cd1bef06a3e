#pragma once
// Shared packed-simulation engine for AIGs.
//
// Every hot loop in the library — learner accuracy scoring, fraig
// signatures, serve eval, approximation scoring, oracle labeling —
// bottoms out in "simulate this AIG over N rows, 64 rows per word".
// SimEngine owns that loop once: one flat word arena of
// num_nodes x words_per_row 64-bit words, driven by the explicit SIMD
// kernels in core/simd.hpp (AVX2/NEON with a scalar fallback, selected at
// runtime) instead of relying on auto-vectorization.
//
// The sweep itself is levelized: on first run after bind() the engine
// precomputes a gate schedule in topo-level-major order, so consecutive
// kernel calls within a level are independent (no store-to-load
// dependency between adjacent gates — the narrow-row case is latency
// bound without this). run() is one full-width kernel sweep over that
// schedule; splitting it into cache-sized column blocks or across threads
// was measured slower and is not done.
//
// Invariant: after run(), every node row honors the BitVec tail-zero
// contract (bits past rows() in the last word are zero), so popcount
// reductions and word-wise compares over rows never need masking.
//
// Determinism: results are a pure function of (graph, input rows) —
// bit-identical to Aig::eval_row per row, and across every simd backend.

#include <cstdint>
#include <vector>

#include "core/bits.hpp"
#include "core/simd.hpp"

namespace lsml::aig {

class Aig;
using Lit = std::uint32_t;

class SimEngine {
 public:
  /// An unbound engine; bind() before the first run(). Exists so scratch
  /// engines (e.g. thread_locals on the serve path) can outlive any graph.
  SimEngine() = default;

  /// Binds to `g`; the graph must outlive the engine (or be rebound).
  explicit SimEngine(const Aig& g) : g_(&g) {}

  /// Rebinds to a graph (e.g. after the caller rebuilt it); keeps the
  /// arena allocation when the new size fits. Invalidates the levelized
  /// schedule — also required when the *bound* graph itself grew (fraig
  /// appends nodes between sweeps), which run() detects on its own.
  void bind(const Aig& g) {
    g_ = &g;
    sched_graph_ = nullptr;
  }
  [[nodiscard]] const Aig& graph() const { return *g_; }

  /// Sweeps the whole graph over the rows in `pi_values` (one BitVec per
  /// PI, all the same size). Extra trailing entries are ignored, matching
  /// the historical Aig::simulate contract.
  void run(const std::vector<const core::BitVec*>& pi_values);

  /// Rows in the last run() batch.
  [[nodiscard]] std::size_t rows() const { return rows_; }
  /// 64-bit words per node row.
  [[nodiscard]] std::size_t words_per_row() const { return wpr_; }

  /// Word row of node `var` (valid until the next run/bind).
  [[nodiscard]] const std::uint64_t* row(std::uint32_t var) const {
    return arena_.data() + static_cast<std::size_t>(var) * wpr_;
  }

  /// Values of literal `l` as a tail-masked BitVec (complement applied).
  [[nodiscard]] core::BitVec extract(Lit l) const;

  /// extract() into a caller-owned BitVec, reusing its word buffer when
  /// the capacity fits — the serve eval path calls this per output per
  /// request, where a fresh allocation each time shows up.
  void extract_into(Lit l, core::BitVec* out) const;

  /// One BitVec per graph output — exactly Aig::simulate's result.
  [[nodiscard]] std::vector<core::BitVec> outputs() const;

  /// outputs() into a caller-owned vector (resized to the output count),
  /// reusing each element's buffer via extract_into.
  void outputs_into(std::vector<core::BitVec>* out) const;

  /// Per-node values indexed by var — Aig::simulate_nodes's result, with
  /// every row tail-masked.
  [[nodiscard]] std::vector<core::BitVec> node_values() const;

  /// popcount of node `var`'s row (tail already masked; no correction).
  [[nodiscard]] std::size_t count_ones(std::uint32_t var) const;

  /// Rows where literal `l` agrees with `ref` (ref.size() must equal
  /// rows()). The accuracy kernel: no output BitVec is materialized.
  [[nodiscard]] std::size_t count_equal(Lit l, const core::BitVec& ref) const;

 private:
  void rebuild_schedule();

  const Aig* g_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t wpr_ = 0;
  std::uint64_t tail_mask_ = ~0ULL;
  std::vector<std::uint64_t> arena_;

  // Levelized schedule: all AND gates in topo-level-major order (stable by
  // var within a level). Valid for (sched_graph_, sched_nodes_); fraig
  // grows the bound graph in place, so node count is part of the key.
  std::vector<core::simd::SweepGate> gates_;
  const Aig* sched_graph_ = nullptr;
  std::uint32_t sched_nodes_ = 0;
};

}  // namespace lsml::aig
