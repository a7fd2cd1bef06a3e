// AIG core microbench: construction rate through the arena/chained unique
// table (cold build, strash-hit lookups, two-level fold savings) and
// packed-simulation throughput — the seed path (one heap BitVec per node,
// as shipped before the SimEngine refactor) vs aig::SimEngine's reusable
// word arena — in minterm-evals/s over a deterministic random-cone pool.
//
//   bench_aig_core [--json out.json] [--check baseline.json]
//                  [--max-regress 0.25] [--kernel scalar|avx2|neon]
//
// --json writes the machine-readable snapshot (BENCH_aig_core.json is the
// committed baseline) with a `host` object (nproc, CPU model, SIMD
// backend, build type, compiler). --check re-reads such a snapshot and
// exits 1 when the current engine simulation throughput or construction
// rate regressed more than --max-regress (fraction) below it — the
// nightly perf gate. It refuses (exit 3, before measuring) a snapshot
// whose host differs from this one.
//
// Every simulation case is measured once per available simd backend (the
// per-kernel columns; the active auto-dispatched backend is starred and is
// what the aggregate/gate use). --kernel pins the whole run to one
// backend.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_random.hpp"
#include "aig/sim_engine.hpp"
#include "core/bits.hpp"
#include "core/config.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"
#include "obs/registry.hpp"
#include "bench_common.hpp"
#include "server/json.hpp"

namespace {

using namespace lsml;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The seed simulate_nodes path, kept verbatim as the comparison baseline:
// a freshly allocated BitVec per node on every call.
std::vector<core::BitVec> seed_simulate_nodes(
    const aig::Aig& g, const std::vector<const core::BitVec*>& pi_values) {
  const std::size_t rows = g.num_pis() == 0 ? 0 : pi_values[0]->size();
  std::vector<core::BitVec> sim(g.num_nodes(), core::BitVec(rows));
  for (std::uint32_t i = 0; i < g.num_pis(); ++i) {
    sim[i + 1] = *pi_values[i];
  }
  const std::size_t nw = sim[0].num_words();
  for (std::uint32_t v = g.num_pis() + 1; v < g.num_nodes(); ++v) {
    const aig::Node n = g.node(v);
    const std::uint64_t* a = sim[aig::lit_var(n.fanin0)].words();
    const std::uint64_t* b = sim[aig::lit_var(n.fanin1)].words();
    std::uint64_t* dst = sim[v].words();
    const std::uint64_t ca = aig::lit_compl(n.fanin0) ? ~0ULL : 0ULL;
    const std::uint64_t cb = aig::lit_compl(n.fanin1) ? ~0ULL : 0ULL;
    for (std::size_t w = 0; w < nw; ++w) {
      dst[w] = (a[w] ^ ca) & (b[w] ^ cb);
    }
  }
  return sim;
}

// Runs `body` repeatedly until ~0.2s of wall time accumulates; returns
// (reps, seconds).
template <typename Body>
std::pair<std::size_t, double> timed_reps(Body&& body) {
  std::size_t reps = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.2 || reps < 3) {
    body();
    ++reps;
    elapsed = seconds_since(t0);
    if (reps >= 100000) {
      break;
    }
  }
  return {reps, elapsed};
}

std::vector<core::BitVec> make_patterns(std::uint32_t num_pis,
                                        std::size_t rows, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<core::BitVec> patterns(num_pis, core::BitVec(rows));
  for (auto& p : patterns) {
    p.randomize(rng);
  }
  return patterns;
}

volatile std::uint64_t g_sink = 0;  // defeats dead-code elimination

}  // namespace

int main(int argc, char** argv) {
  namespace simd = lsml::core::simd;
  std::string json_path;
  std::string check_path;
  std::string kernel_arg;
  double max_regress = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--max-regress" && i + 1 < argc) {
      max_regress = std::atof(argv[++i]);
    } else if (arg == "--kernel" && i + 1 < argc) {
      kernel_arg = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_aig_core [--json out.json] "
                   "[--check baseline.json] [--max-regress frac] "
                   "[--kernel scalar|avx2|neon]\n");
      return 2;
    }
  }
  if (!kernel_arg.empty()) {
    simd::Backend pinned;
    if (!simd::backend_from_string(kernel_arg, &pinned) ||
        simd::ops_for(pinned) == nullptr) {
      std::fprintf(stderr, "bench_aig_core: kernel '%s' unknown or not "
                           "available on this host; available:",
                   kernel_arg.c_str());
      for (simd::Backend b : simd::available_backends()) {
        std::fprintf(stderr, " %s", simd::to_string(b));
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    simd::force_backend(pinned);
  }
  server::Json baseline;
  if (!check_path.empty()) {
    std::ifstream is(check_path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    if (!is) {
      std::fprintf(stderr, "bench_aig_core: cannot read %s\n",
                   check_path.c_str());
      return 1;
    }
    baseline = server::Json::parse(buffer.str());
    bench::require_same_host("bench_aig_core", check_path, baseline);
  }
  const simd::Backend active = simd::active_backend();
  // Per-kernel columns cover every backend this host can run — unless the
  // run is pinned, in which case only the pinned backend is timed.
  const std::vector<simd::Backend> kernels =
      kernel_arg.empty() ? simd::available_backends()
                         : std::vector<simd::Backend>{active};

  const core::ScaleConfig cfg = core::scale_from_env();
  std::printf("== aig core: construction + packed simulation ==\n");
  std::printf("scale=%s (LSML_SCALE=smoke|fast|full)\n", cfg.name().c_str());
  std::printf("simd kernel: %s%s (LSML_SIMD or --kernel to pin)\n\n",
              simd::to_string(active),
              kernel_arg.empty() ? " via auto-dispatch" : ", pinned");

  // Deterministic pool: sizes chosen so smoke stays CI-cheap.
  const bool smoke = cfg.scale == core::Scale::kSmoke;
  const std::vector<std::uint32_t> pool_ands =
      smoke ? std::vector<std::uint32_t>{300, 1000}
            : std::vector<std::uint32_t>{300, 1000, 3000};
  const std::vector<std::size_t> row_counts =
      smoke ? std::vector<std::size_t>{256} : std::vector<std::size_t>{64,
                                                                       256,
                                                                       1024};
  std::vector<aig::Aig> pool;
  {
    core::Rng rng(2026);
    for (const std::uint32_t ands : pool_ands) {
      aig::ConeOptions cone;
      cone.num_inputs = 20;
      cone.num_ands = ands;
      cone.max_tries = 2;
      pool.push_back(aig::random_cone(cone, rng));
    }
  }

  // ------------------------------------------------------- construction
  double build_nodes = 0.0;
  double build_s = 0.0;
  double lookup_nodes = 0.0;
  double lookup_s = 0.0;
  std::uint64_t one_level_ands = 0;
  std::uint64_t two_level_ands = 0;
  for (const aig::Aig& g : pool) {
    const auto [build_reps, bs] = timed_reps([&] {
      aig::Aig fresh(g.num_pis());
      fresh.reserve(g.num_ands());
      g_sink = g_sink + aig::append_aig(fresh, g);
    });
    build_nodes += static_cast<double>(build_reps) * g.num_ands();
    build_s += bs;
    // Hot lookups: re-appending into a populated table allocates nothing;
    // every and2 is a unique-table hit.
    aig::Aig warm(g.num_pis());
    aig::append_aig(warm, g);
    const auto [hit_reps, hs] = timed_reps([&] {
      g_sink = g_sink + aig::append_aig(warm, g);
    });
    lookup_nodes += static_cast<double>(hit_reps) * g.num_ands();
    lookup_s += hs;
    aig::Aig folded(g.num_pis(), aig::Aig::StrashMode::kTwoLevel);
    aig::append_aig(folded, g);
    one_level_ands += g.num_ands();
    two_level_ands += folded.num_ands();
  }
  const double build_rate = build_nodes / build_s;
  const double lookup_rate = lookup_nodes / lookup_s;
  const double fold_saved =
      1.0 - static_cast<double>(two_level_ands) /
                static_cast<double>(one_level_ands);
  std::printf("construction: %.2fM nodes/s cold, %.2fM lookups/s hot, "
              "two-level folds save %.1f%% of ANDs\n\n",
              build_rate / 1e6, lookup_rate / 1e6, 100.0 * fold_saved);
  std::printf("aig-core-bench: construction nodes_per_s=%.0f "
              "lookups_per_s=%.0f two_level_saved=%.4f\n\n",
              build_rate, lookup_rate, fold_saved);

  // --------------------------------------------------------- simulation
  std::printf("%8s %6s | %12s |", "ands", "rows", "seed Mme/s");
  for (simd::Backend b : kernels) {
    std::string label = simd::to_string(b);
    if (b == active) {
      label += '*';
    }
    std::printf(" %10s", label.c_str());
  }
  std::printf(" | %7s\n", "speedup");

  server::Json cases = server::Json::array();
  double seed_minterms = 0.0;
  double seed_s = 0.0;
  double engine_minterms = 0.0;
  double engine_s = 0.0;
  std::vector<double> kernel_minterms(kernels.size(), 0.0);
  std::vector<double> kernel_s(kernels.size(), 0.0);
  for (const aig::Aig& g : pool) {
    for (const std::size_t rows : row_counts) {
      const auto patterns = make_patterns(g.num_pis(), rows, 77);
      std::vector<const core::BitVec*> ptrs;
      for (const auto& p : patterns) {
        ptrs.push_back(&p);
      }
      const double minterms = static_cast<double>(g.num_ands()) * rows;
      const auto [seed_reps, ss] = timed_reps([&] {
        const auto sim = seed_simulate_nodes(g, ptrs);
        g_sink = g_sink + sim.back().word(0);
      });
      const double seed_rate = minterms * seed_reps / ss;
      seed_minterms += minterms * seed_reps;
      seed_s += ss;
      std::printf("%8u %6zu | %12.1f |", g.num_ands(), rows,
                  seed_rate / 1e6);

      aig::SimEngine engine(g);
      double active_rate = 0.0;
      server::Json kernel_rates = server::Json::object();
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        simd::force_backend(kernels[k]);
        const auto [engine_reps, es] = timed_reps([&] {
          engine.run(ptrs);
          g_sink = g_sink + engine.row(g.num_nodes() - 1)[0];
        });
        const double rate = minterms * engine_reps / es;
        kernel_minterms[k] += minterms * engine_reps;
        kernel_s[k] += es;
        kernel_rates.set(simd::to_string(kernels[k]), rate);
        if (kernels[k] == active) {
          active_rate = rate;
          engine_minterms += minterms * engine_reps;
          engine_s += es;
        }
        std::printf(" %10.1f", rate / 1e6);
      }

      std::printf(" | %6.2fx\n", active_rate / seed_rate);

      server::Json c = server::Json::object();
      c.set("ands", g.num_ands());
      c.set("rows", static_cast<std::int64_t>(rows));
      c.set("seed_minterm_evals_per_s", seed_rate);
      c.set("engine_minterm_evals_per_s", active_rate);
      c.set("kernels", std::move(kernel_rates));
      cases.push_back(std::move(c));
    }
  }
  if (kernel_arg.empty()) {
    simd::clear_forced_backend();
  }
  const double seed_agg = seed_minterms / seed_s;
  const double engine_agg = engine_minterms / engine_s;
  const double speedup = engine_agg / seed_agg;
  std::printf("\naig-core-bench: simulation seed=%.0f engine=%.0f "
              "speedup=%.2f kernel=%s\n",
              seed_agg, engine_agg, speedup, simd::to_string(active));
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    std::printf("aig-core-bench: kernel %s engine=%.0f\n",
                simd::to_string(kernels[k]),
                kernel_minterms[k] / kernel_s[k]);
  }

  server::Json out = server::Json::object();
  out.set("schema", "lsml-bench-aig-core-v2");
  out.set("scale", cfg.name());
  out.set("host", bench::host_info());
  server::Json construction = server::Json::object();
  construction.set("nodes_per_s", build_rate);
  construction.set("lookups_per_s", lookup_rate);
  construction.set("two_level_saved_frac", fold_saved);
  out.set("construction", std::move(construction));
  server::Json simulation = server::Json::object();
  simulation.set("cases", std::move(cases));
  simulation.set("seed_minterm_evals_per_s", seed_agg);
  simulation.set("engine_minterm_evals_per_s", engine_agg);
  simulation.set("speedup", speedup);
  simulation.set("kernel", simd::to_string(active));
  server::Json kernel_aggs = server::Json::object();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    kernel_aggs.set(simd::to_string(kernels[k]),
                    kernel_minterms[k] / kernel_s[k]);
  }
  simulation.set("kernels", std::move(kernel_aggs));
  out.set("simulation", std::move(simulation));
  {
    // Telemetry summary of every sweep the runs above pushed through the
    // shared SimEngine counters (side channel; not gated by --check).
    obs::Registry& reg = obs::Registry::instance();
    server::Json ob = server::Json::object();
    if (const auto s = reg.histogram_snapshot("lsml_sim_sweep_ns")) {
      server::Json h = server::Json::object();
      h.set("count", static_cast<std::int64_t>(s->count));
      h.set("p50_ns", s->quantile(0.5));
      h.set("p99_ns", s->quantile(0.99));
      h.set("mean_ns", s->mean());
      ob.set("sweep_ns", std::move(h));
    }
    ob.set("sweeps", static_cast<std::int64_t>(
                         reg.counter_value("lsml_sim_sweeps_total")));
    ob.set("rows", static_cast<std::int64_t>(
                       reg.counter_value("lsml_sim_rows_total")));
    ob.set("words", static_cast<std::int64_t>(
                        reg.counter_value("lsml_sim_words_total")));
    out.set("obs", std::move(ob));
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << out.dump() << "\n";
    if (!os) {
      std::fprintf(stderr, "bench_aig_core: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!check_path.empty()) {
    const double base_engine =
        baseline.at("simulation").at("engine_minterm_evals_per_s").as_double();
    const double base_build =
        baseline.at("construction").at("nodes_per_s").as_double();
    const double floor_engine = base_engine * (1.0 - max_regress);
    const double floor_build = base_build * (1.0 - max_regress);
    std::printf("check vs %s (max regression %.0f%%):\n", check_path.c_str(),
                100.0 * max_regress);
    std::printf("  engine sim:    %.0f vs floor %.0f  %s\n", engine_agg,
                floor_engine, engine_agg >= floor_engine ? "ok" : "REGRESSED");
    std::printf("  construction:  %.0f vs floor %.0f  %s\n", build_rate,
                floor_build, build_rate >= floor_build ? "ok" : "REGRESSED");
    if (engine_agg < floor_engine || build_rate < floor_build) {
      return 1;
    }
  }
  return 0;
}
