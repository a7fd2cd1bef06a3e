#pragma once
// And-Inverter Graph (AIG) package.
//
// The contest's target representation: a DAG of 2-input AND gates with
// optionally complemented edges. This implementation provides structural
// hashing, constant/trivial-case simplification, 64-way parallel bit
// simulation, level/size queries, and cone-based compaction. Node ids are
// assigned in topological order (fanins always precede a gate), which every
// traversal in the library relies on.
//
// Storage is structure-of-arrays: one flat fanin array per edge slot plus
// an intrusive hash-chained unique table (bucket heads + per-node next
// indices, Boolector-style), so construction never touches a node-handle
// map and a topological sweep walks two contiguous arrays. Structural
// hashing has two strengths (StrashMode): the default one-level rules are
// byte-compatible with the historical map-based strash — same node ids,
// same content_hash, same write_aag output for any build sequence — while
// the opt-in two-level rules additionally inspect grandchildren
// (contradiction / subsumption / idempotence / resemblance) so redundant
// AND nodes that would otherwise survive until `fraig` are never built.

#include <cstdint>
#include <string>
#include <vector>

#include "core/bits.hpp"

namespace lsml::aig {

/// Edge literal: 2*var + complement. Literal 0 is constant false, 1 true.
using Lit = std::uint32_t;

inline constexpr Lit kLitFalse = 0;
inline constexpr Lit kLitTrue = 1;

[[nodiscard]] inline constexpr Lit make_lit(std::uint32_t var, bool compl_) {
  return (var << 1) | static_cast<std::uint32_t>(compl_);
}
[[nodiscard]] inline constexpr std::uint32_t lit_var(Lit l) { return l >> 1; }
[[nodiscard]] inline constexpr bool lit_compl(Lit l) { return l & 1u; }
[[nodiscard]] inline constexpr Lit lit_not(Lit l) { return l ^ 1u; }
[[nodiscard]] inline constexpr Lit lit_notc(Lit l, bool c) {
  return l ^ static_cast<Lit>(c);
}

/// A single AND node; primary inputs and the constant node have no fanins.
/// Returned by value from Aig::node() (the graph stores fanins SoA).
struct Node {
  Lit fanin0 = 0;
  Lit fanin1 = 0;
};

class Aig {
 public:
  /// How much structure and2() folds before allocating a node.
  enum class StrashMode : std::uint8_t {
    /// Constant/idempotence/complement rules on the two operands only.
    /// Byte-compatible with every AIG this library ever built: node ids,
    /// content_hash and write_aag output are pinned by golden tests.
    kOneLevel,
    /// kOneLevel plus grandchild rules (contradiction, subsumption,
    /// idempotence, resemblance). Never allocates a node a one-level
    /// build would have skipped; may fold to an existing literal or a
    /// constant instead of allocating. Deterministic, but produces
    /// different (smaller) structures than kOneLevel, so only consumers
    /// without a pinned-artifact contract opt in (e.g. sat::fraig).
    kTwoLevel,
  };

  /// Creates an AIG with `num_pis` primary inputs (vars 1..num_pis).
  explicit Aig(std::uint32_t num_pis = 0,
               StrashMode mode = StrashMode::kOneLevel);

  [[nodiscard]] StrashMode strash_mode() const { return mode_; }

  [[nodiscard]] std::uint32_t num_pis() const { return num_pis_; }
  /// Total node count including constant and PIs.
  [[nodiscard]] std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(fanin0_.size());
  }
  /// Number of AND gates (the contest's size metric).
  [[nodiscard]] std::uint32_t num_ands() const {
    return num_nodes() - num_pis_ - 1;
  }
  [[nodiscard]] bool is_pi(std::uint32_t var) const {
    return var >= 1 && var <= num_pis_;
  }
  [[nodiscard]] bool is_and(std::uint32_t var) const {
    return var > num_pis_;
  }
  [[nodiscard]] Node node(std::uint32_t var) const {
    return Node{fanin0_[var], fanin1_[var]};
  }
  [[nodiscard]] Lit fanin0(std::uint32_t var) const { return fanin0_[var]; }
  [[nodiscard]] Lit fanin1(std::uint32_t var) const { return fanin1_[var]; }

  /// Pre-sizes node storage and the unique table for `num_ands` gates.
  void reserve(std::uint32_t num_ands);

  /// Literal of the i-th primary input, i in [0, num_pis).
  [[nodiscard]] Lit pi(std::uint32_t i) const { return make_lit(i + 1, false); }

  /// Structurally hashed AND with constant/idempotence simplification
  /// (plus grandchild rules under StrashMode::kTwoLevel).
  Lit and2(Lit a, Lit b);
  Lit or2(Lit a, Lit b) { return lit_not(and2(lit_not(a), lit_not(b))); }
  Lit xor2(Lit a, Lit b);
  Lit xnor2(Lit a, Lit b) { return lit_not(xor2(a, b)); }
  /// if s then t else e.
  Lit mux(Lit s, Lit t, Lit e);
  Lit maj3(Lit a, Lit b, Lit c);

  void add_output(Lit l) { outputs_.push_back(l); }
  void set_output(std::size_t i, Lit l) { outputs_[i] = l; }
  [[nodiscard]] std::size_t num_outputs() const { return outputs_.size(); }
  [[nodiscard]] Lit output(std::size_t i = 0) const { return outputs_[i]; }
  [[nodiscard]] const std::vector<Lit>& outputs() const { return outputs_; }

  /// Structural level of every node (PIs at level 0).
  [[nodiscard]] std::vector<std::uint32_t> levels() const;
  /// Maximum level over all outputs (the contest's depth metric).
  [[nodiscard]] std::uint32_t num_levels() const;

  /// Fanout count of every node, counting output uses.
  [[nodiscard]] std::vector<std::uint32_t> fanout_counts() const;

  /// Evaluates all outputs for one input row (bit i = value of PI i).
  [[nodiscard]] std::vector<bool> eval_row(
      const std::vector<std::uint8_t>& inputs) const;

  /// 64-way parallel simulation. `pi_values[i]` holds the values of PI i
  /// across all simulated rows; returns one BitVec per output. Thin
  /// compatibility wrapper over aig::SimEngine — callers that simulate
  /// the same circuit repeatedly should hold a SimEngine instead so the
  /// word arena is reused across sweeps.
  [[nodiscard]] std::vector<core::BitVec> simulate(
      const std::vector<const core::BitVec*>& pi_values) const;

  /// Per-node simulation values (indexed by var), for approximation
  /// passes. Same SimEngine wrapper; every returned row honors the
  /// BitVec tail-zero invariant (historically tails held garbage).
  [[nodiscard]] std::vector<core::BitVec> simulate_nodes(
      const std::vector<const core::BitVec*>& pi_values) const;

  /// Structural content digest (PI count, node fanins, outputs), in the
  /// style of data::Dataset::content_hash: equal structures hash equal
  /// across processes. Keys the synth::PassManager memo and participates
  /// in on-disk cache keys, so changing it requires bumping
  /// suite::kResultCacheSchemaVersion.
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Returns a compacted copy containing only the cone of the outputs.
  /// The PI count is preserved (PIs are never removed), and so is the
  /// strash mode.
  [[nodiscard]] Aig cleanup() const;

  /// Number of AND nodes in the cone of the outputs (dangling excluded).
  [[nodiscard]] std::uint32_t cone_size() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Bucket index of the (a, b) fanin pair in the current table.
  [[nodiscard]] std::uint32_t bucket_of(Lit a, Lit b) const;
  /// Grandchild folding; returns the folded literal or kNil-as-lit
  /// (kNoFold) when no two-level rule applies.
  [[nodiscard]] Lit fold_two_level(Lit a, Lit b) const;
  /// Doubles the bucket array and relinks every AND node.
  void grow_table();

  std::uint32_t num_pis_ = 0;
  StrashMode mode_ = StrashMode::kOneLevel;
  // Structure-of-arrays node storage: [0]=const, [1..num_pis]=PIs, rest
  // ANDs in topological order. PIs/const carry fanins 0.
  std::vector<Lit> fanin0_;
  std::vector<Lit> fanin1_;
  std::vector<Lit> outputs_;
  // Intrusive unique table over the AND nodes: heads_ holds chain heads
  // per bucket (power-of-two count), next_[var] threads the chain through
  // the arena. Only point lookups — chain order never leaks into results.
  std::vector<std::uint32_t> heads_;
  std::vector<std::uint32_t> next_;
};

/// Fraction of rows on which the single-output AIG agrees with `labels`.
double agreement(const Aig& aig,
                 const std::vector<const core::BitVec*>& pi_values,
                 const core::BitVec& labels);

/// Copies `src` (single output) into `dst`, mapping src PI i to dst PI i,
/// and returns the literal of src's output inside dst. Used to combine
/// separately-trained circuits into one ensemble AIG.
Lit append_aig(Aig& dst, const Aig& src, std::size_t output_index = 0);

/// Copies `src` into `dst` once, as append_aig does, and returns the
/// literal of every src output inside dst (in output order).
std::vector<Lit> append_aig_outputs(Aig& dst, const Aig& src);

}  // namespace lsml::aig
