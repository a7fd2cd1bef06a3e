// Kernel-parity suite for the explicit SIMD layer (core/simd.hpp) and the
// levelized SimEngine sweep built on it.
//
// The contract under test: every compiled-in backend — and every way of
// driving it (narrow and wide arenas, an engine reused across batch sizes,
// scratch-reuse extraction) — produces bit-identical results, all agreeing
// with the one-row-at-a-time Aig::eval_row oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_random.hpp"
#include "aig/sim_engine.hpp"
#include "core/bits.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"
#include "obs/registry.hpp"

namespace lsml {
namespace {

using aig::Aig;
using aig::SimEngine;
using core::BitVec;
using core::Rng;
namespace simd = core::simd;

/// Restores auto-dispatch no matter how a test exits.
struct ForcedBackend {
  explicit ForcedBackend(simd::Backend b) { simd::force_backend(b); }
  ~ForcedBackend() { simd::clear_forced_backend(); }
};

std::vector<BitVec> random_columns(std::uint32_t num_pis, std::size_t rows,
                                   Rng& rng) {
  std::vector<BitVec> columns(num_pis, BitVec(rows));
  for (auto& column : columns) {
    column.randomize(rng);
  }
  return columns;
}

std::vector<const BitVec*> column_ptrs(const std::vector<BitVec>& columns) {
  std::vector<const BitVec*> ptrs;
  ptrs.reserve(columns.size());
  for (const auto& column : columns) {
    ptrs.push_back(&column);
  }
  return ptrs;
}

TEST(SimdDispatchTest, ScalarAlwaysAvailableAndNamesRoundTrip) {
  const std::vector<simd::Backend> available = simd::available_backends();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.front(), simd::Backend::kScalar);
  for (simd::Backend b : available) {
    const simd::Ops* ops = simd::ops_for(b);
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->backend, b);
    simd::Backend parsed;
    ASSERT_TRUE(simd::backend_from_string(simd::to_string(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  simd::Backend ignored;
  EXPECT_FALSE(simd::backend_from_string("sse9", &ignored));
}

TEST(SimdDispatchTest, ForceBackendPinsActiveBackend) {
  for (simd::Backend b : simd::available_backends()) {
    ForcedBackend forced(b);
    EXPECT_EQ(simd::active_backend(), b);
    EXPECT_EQ(simd::ops().backend, b);
  }
  // Guard restored auto-dispatch: active must be one of the available set.
  const std::vector<simd::Backend> available = simd::available_backends();
  bool found = false;
  for (simd::Backend b : available) {
    found = found || b == simd::active_backend();
  }
  EXPECT_TRUE(found);
}

// 200 random AIGs: the scalar sweep must match Aig::eval_row on every row,
// and every other available backend must reproduce the scalar arena
// bit-for-bit (node_values compares all rows, tails included).
TEST(SimdKernelParityTest, AllBackendsMatchEvalRowOn200RandomAigs) {
  const std::vector<simd::Backend> backends = simd::available_backends();
  Rng rng(20260808);
  // Ragged on purpose: word tails, single-word rows, multi-word rows.
  const std::size_t row_choices[] = {1, 17, 63, 64, 65, 127, 128, 200, 320};
  for (int c = 0; c < 200; ++c) {
    aig::ConeOptions cone;
    cone.num_inputs = 3 + (c % 8);
    cone.num_ands = 8 + (c * 7) % 80;
    cone.flavor = static_cast<aig::ConeFlavor>(c % 3);
    cone.max_tries = 1;  // no balance requirement for a parity check
    const Aig g = aig::random_cone(cone, rng);
    const std::size_t rows = row_choices[c % std::size(row_choices)];
    const std::vector<BitVec> columns = random_columns(g.num_pis(), rows, rng);
    const std::vector<const BitVec*> ptrs = column_ptrs(columns);

    std::vector<BitVec> reference;
    {
      ForcedBackend forced(simd::Backend::kScalar);
      SimEngine engine(g);
      engine.run(ptrs);
      reference = engine.node_values();
      // Scalar vs the per-row oracle, every row, every output.
      for (std::size_t r = 0; r < rows; ++r) {
        std::vector<std::uint8_t> row_bits(g.num_pis());
        for (std::uint32_t i = 0; i < g.num_pis(); ++i) {
          row_bits[i] = columns[i].get(r) ? 1 : 0;
        }
        const std::vector<bool> expect = g.eval_row(row_bits);
        for (std::uint32_t o = 0; o < g.num_outputs(); ++o) {
          ASSERT_EQ(engine.extract(g.output(o)).get(r), expect[o])
              << "circuit " << c << " row " << r << " output " << o;
        }
      }
    }
    for (simd::Backend b : backends) {
      if (b == simd::Backend::kScalar) {
        continue;
      }
      ForcedBackend forced(b);
      SimEngine engine(g);
      engine.run(ptrs);
      ASSERT_EQ(engine.node_values(), reference)
          << "backend " << simd::to_string(b) << " circuit " << c << " rows "
          << rows;
    }
  }
}

// One wide cone, one engine per backend, each reused across batch sizes:
// at 4113 rows the arena is ~1.5 MB, so the full-width sweep runs far past
// any cache-sized block, and the ragged batch sizes exercise every
// kernel's tail handling (the avx2 overlapped epilogue included) while the
// arena and schedule are reused. Every backend must reproduce the scalar
// arena, and the scalar outputs must match Aig::eval_row on every row.
// (Separate engines per backend, so a kernel that skips words cannot pass
// on values another backend left in a shared arena.)
TEST(SimdKernelParityTest, WideArenaAllBackendsMatchScalarAndEvalRow) {
  Rng rng(777);
  aig::ConeOptions cone;
  cone.num_inputs = 16;
  cone.num_ands = 18000;  // construction target; ~3000 ANDs survive cleanup
  cone.flavor = aig::ConeFlavor::kXorRich;
  cone.max_tries = 1;
  const Aig g = aig::random_cone(cone, rng);
  const std::size_t kWidestRows = 4113;
  ASSERT_GT(g.num_nodes() * ((kWidestRows + 63) / 64) * 8, 1024u * 1024u)
      << "cone too small for a wide arena: " << g.num_ands() << " ANDs";
  const std::vector<simd::Backend> backends = simd::available_backends();
  ASSERT_EQ(backends.front(), simd::Backend::kScalar);
  std::vector<SimEngine> engines(backends.size(), SimEngine(g));
  for (std::size_t rows : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                           std::size_t{65}, std::size_t{1500}, kWidestRows}) {
    const std::vector<BitVec> columns = random_columns(g.num_pis(), rows, rng);
    const std::vector<const BitVec*> ptrs = column_ptrs(columns);
    std::vector<BitVec> reference;
    {
      ForcedBackend forced(simd::Backend::kScalar);
      SimEngine& engine = engines.front();
      engine.run(ptrs);
      reference = engine.node_values();
      const std::vector<BitVec> outputs = engine.outputs();
      std::vector<std::uint8_t> row_bits(g.num_pis());
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::uint32_t i = 0; i < g.num_pis(); ++i) {
          row_bits[i] = columns[i].get(r) ? 1 : 0;
        }
        const std::vector<bool> expect = g.eval_row(row_bits);
        for (std::uint32_t o = 0; o < g.num_outputs(); ++o) {
          ASSERT_EQ(outputs[o].get(r), expect[o])
              << rows << " rows, row " << r << " output " << o;
        }
      }
    }
    for (std::size_t k = 1; k < backends.size(); ++k) {
      ForcedBackend forced(backends[k]);
      engines[k].run(ptrs);
      ASSERT_EQ(engines[k].node_values(), reference)
          << "backend " << simd::to_string(backends[k]) << ", " << rows
          << " rows";
    }
  }
}

// The sweep latency histogram is in ns: a 400-row sweep of a few hundred
// ANDs takes ~2 µs, which µs buckets would round away. One run() is one
// sample with a nonzero duration.
TEST(SimEngineMetricsTest, RunRecordsOneSweepInNanoseconds) {
  Rng rng(400);
  aig::ConeOptions cone;
  cone.num_inputs = 12;
  cone.num_ands = 500;
  cone.max_tries = 1;
  const Aig g = aig::random_cone(cone, rng);
  const std::vector<BitVec> columns = random_columns(g.num_pis(), 400, rng);
  SimEngine engine(g);
  engine.run(column_ptrs(columns));  // registers the metrics
  obs::Registry& reg = obs::Registry::instance();
  const auto before = reg.histogram_snapshot("lsml_sim_sweep_ns");
  ASSERT_TRUE(before.has_value());
  engine.run(column_ptrs(columns));
  const auto after = reg.histogram_snapshot("lsml_sim_sweep_ns");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->count, before->count + 1);
  EXPECT_GT(after->sum, before->sum);
}

TEST(SimdKernelParityTest, BitVecReductionsMatchNaiveUnderEveryBackend) {
  Rng rng(4242);
  const std::size_t sizes[] = {0, 1, 63, 64, 65, 200, 1024, 4113};
  for (std::size_t n : sizes) {
    BitVec a(n);
    BitVec b(n);
    a.randomize(rng);
    b.randomize(rng);
    std::size_t ones = 0, equal = 0, both = 0, only_a = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ones += a.get(i);
      equal += a.get(i) == b.get(i);
      both += a.get(i) && b.get(i);
      only_a += a.get(i) && !b.get(i);
    }
    for (simd::Backend backend : simd::available_backends()) {
      ForcedBackend forced(backend);
      EXPECT_EQ(a.count(), ones) << simd::to_string(backend) << " n=" << n;
      EXPECT_EQ(a.count_equal(b), equal);
      EXPECT_EQ(a.count_and(b), both);
      EXPECT_EQ(a.count_andnot(b), only_a);
    }
  }
}

TEST(SimdKernelParityTest, ExtractIntoAndOutputsIntoReuseScratch) {
  Rng rng(99);
  aig::ConeOptions cone;
  cone.num_inputs = 6;
  cone.num_ands = 40;
  cone.max_tries = 1;
  const Aig g = aig::random_cone(cone, rng);
  const std::size_t rows = 130;
  const std::vector<BitVec> columns = random_columns(g.num_pis(), rows, rng);
  SimEngine engine(g);
  engine.run(column_ptrs(columns));

  // Dirty, wrong-sized scratch must come out identical to a fresh extract.
  BitVec scratch(7, true);
  for (bool compl_edge : {false, true}) {
    const aig::Lit l = aig::lit_notc(g.output(0), compl_edge);
    engine.extract_into(l, &scratch);
    EXPECT_EQ(scratch, engine.extract(l));
  }
  std::vector<BitVec> outs_scratch(3, BitVec(11, true));
  engine.outputs_into(&outs_scratch);
  EXPECT_EQ(outs_scratch, engine.outputs());

  // Scratch reuse across differently-sized sweeps stays exact.
  const std::size_t rows2 = 65;
  const std::vector<BitVec> columns2 =
      random_columns(g.num_pis(), rows2, rng);
  engine.run(column_ptrs(columns2));
  engine.outputs_into(&outs_scratch);
  EXPECT_EQ(outs_scratch, engine.outputs());
}

TEST(SimdKernelParityTest, CountEqualMatchesExtractedCounts) {
  Rng rng(31337);
  aig::ConeOptions cone;
  cone.num_inputs = 8;
  cone.num_ands = 60;
  cone.max_tries = 1;
  const Aig g = aig::random_cone(cone, rng);
  for (std::size_t rows : {64u, 100u, 1024u}) {
    const std::vector<BitVec> columns = random_columns(g.num_pis(), rows, rng);
    BitVec ref(rows);
    ref.randomize(rng);
    SimEngine engine(g);
    engine.run(column_ptrs(columns));
    std::vector<aig::Lit> candidates;
    for (std::uint32_t v = g.num_pis() + 1; v < g.num_nodes(); ++v) {
      candidates.push_back(aig::make_lit(v, (v & 1) != 0));
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const BitVec values = engine.extract(candidates[i]);
      ASSERT_EQ(engine.count_equal(candidates[i], ref),
                values.count_equal(ref))
          << "candidate " << i;
    }
  }
}

}  // namespace
}  // namespace lsml
