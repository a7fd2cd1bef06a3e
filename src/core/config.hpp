#pragma once
// Experiment scale configuration.
//
// The paper's protocol uses 6400 training / 6400 validation / 6400 test
// minterms per benchmark. That is `Scale::kFull`. To keep the bench suite
// runnable on a laptop in minutes, benches default to `Scale::kFast`
// (reduced sample counts and trimmed hyper-parameter grids); the shapes of
// all results are preserved. `Scale::kSmoke` is for CI-style sanity runs.
//
// Selected via the LSML_SCALE environment variable: "smoke", "fast", "full".

#include <cstddef>
#include <string>

namespace lsml::core {

enum class Scale { kSmoke, kFast, kFull };

struct ScaleConfig {
  Scale scale = Scale::kFast;
  std::size_t train_rows = 2000;  ///< per-benchmark training minterms
  std::size_t valid_rows = 2000;  ///< validation minterms
  std::size_t test_rows = 2000;   ///< held-out test minterms
  std::size_t num_benchmarks = 100;  ///< how many of ex00..ex99 to run

  [[nodiscard]] std::string name() const;
};

/// Reads LSML_SCALE (default "fast") and returns the matching config.
ScaleConfig scale_from_env();

/// Reads a thread-count env var (benches/examples use LSML_THREADS).
/// Unset, non-numeric, negative, or > 4096 values return `fallback`; 0
/// means "one worker per hardware thread" (RunnerOptions/ThreadPool
/// convention).
int threads_from_env(const char* name, int fallback);

/// Config for an explicit scale value.
ScaleConfig make_scale(Scale s);

}  // namespace lsml::core
