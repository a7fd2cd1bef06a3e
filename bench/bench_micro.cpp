// Micro-benchmarks (google-benchmark) for the core kernels the whole
// reproduction leans on: packed AIG simulation, structural hashing,
// DT split scanning, ESPRESSO expansion, ISOP, and the `fast` synth preset.

#include <benchmark/benchmark.h>

#include "aig/aig_random.hpp"
#include "core/rng.hpp"
#include "learn/dt.hpp"
#include "sop/espresso.hpp"
#include "synth/pass_manager.hpp"
#include "tt/isop.hpp"

namespace {

using namespace lsml;

aig::Aig make_cone(std::uint32_t inputs, std::uint32_t ands, int seed) {
  core::Rng rng(seed);
  aig::ConeOptions options;
  options.num_inputs = inputs;
  options.num_ands = ands;
  options.max_tries = 4;
  return aig::random_cone(options, rng);
}

data::Dataset make_dataset(std::size_t inputs, std::size_t rows, int seed) {
  core::Rng rng(seed);
  data::Dataset ds(inputs, rows);
  for (std::size_t c = 0; c < inputs; ++c) {
    ds.column(c).randomize(rng);
  }
  ds.labels().randomize(rng);
  return ds;
}

void BM_AigSimulate(benchmark::State& state) {
  const auto g = make_cone(64, static_cast<std::uint32_t>(state.range(0)), 1);
  const auto ds = make_dataset(64, 6400, 2);
  const auto ptrs = ds.column_ptrs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.simulate(ptrs));
  }
  state.SetItemsProcessed(state.iterations() * 6400 * g.num_ands());
}
BENCHMARK(BM_AigSimulate)->Arg(500)->Arg(2000)->Arg(5000);

void BM_AigStrash(benchmark::State& state) {
  core::Rng rng(3);
  for (auto _ : state) {
    aig::Aig g(32);
    std::vector<aig::Lit> pool;
    for (std::uint32_t i = 0; i < 32; ++i) {
      pool.push_back(g.pi(i));
    }
    for (int i = 0; i < state.range(0); ++i) {
      const aig::Lit a =
          aig::lit_notc(pool[rng.below(pool.size())], rng.flip(0.5));
      const aig::Lit b =
          aig::lit_notc(pool[rng.below(pool.size())], rng.flip(0.5));
      pool.push_back(g.and2(a, b));
    }
    benchmark::DoNotOptimize(g.num_ands());
  }
}
BENCHMARK(BM_AigStrash)->Arg(1000)->Arg(10000);

void BM_AigOptimize(benchmark::State& state) {
  const auto g = make_cone(32, static_cast<std::uint32_t>(state.range(0)), 4);
  synth::SynthOptions options;
  options.node_budget = 0;
  const synth::PassManager manager(options);
  const synth::Script fast = synth::Script::preset("fast");
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.run(g, fast).circuit.num_ands());
  }
}
BENCHMARK(BM_AigOptimize)->Arg(300)->Arg(1500)->Unit(benchmark::kMillisecond);

void BM_DtFit(benchmark::State& state) {
  const auto ds = make_dataset(static_cast<std::size_t>(state.range(0)), 2000, 5);
  for (auto _ : state) {
    core::Rng rng(6);
    learn::DtOptions options;
    options.max_depth = 8;
    benchmark::DoNotOptimize(learn::DecisionTree::fit(ds, options, rng));
  }
  state.SetLabel(std::to_string(state.range(0)) + " features");
}
BENCHMARK(BM_DtFit)->Arg(32)->Arg(256)->Arg(784)->Unit(benchmark::kMillisecond);

void BM_Espresso(benchmark::State& state) {
  core::Rng gen(7);
  data::Dataset ds(static_cast<std::size_t>(state.range(0)), 1000);
  for (std::size_t c = 0; c < ds.num_inputs(); ++c) {
    ds.column(c).randomize(gen);
  }
  for (std::size_t r = 0; r < ds.num_rows(); ++r) {
    ds.set_label(r, ds.input(r, 0) || (ds.input(r, 1) && ds.input(r, 2)));
  }
  for (auto _ : state) {
    core::Rng rng(8);
    benchmark::DoNotOptimize(sop::espresso(ds, {}, rng));
  }
}
BENCHMARK(BM_Espresso)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_Isop(benchmark::State& state) {
  core::Rng rng(9);
  tt::TruthTable f(static_cast<int>(state.range(0)));
  for (std::uint64_t m = 0; m < f.num_minterms(); ++m) {
    if (rng.flip(0.5)) {
      f.set(m, true);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tt::isop(f));
  }
}
BENCHMARK(BM_Isop)->Arg(6)->Arg(10)->Arg(14);

}  // namespace

BENCHMARK_MAIN();
