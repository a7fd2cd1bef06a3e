#pragma once
// Shared plumbing of the end-to-end benchmark: command line, the result
// record every workload fills, process clocks, the obs::Registry and
// obs::Tracer readers that turn the library's own telemetry into
// per-layer figures, and a few statistics helpers.
//
// Nothing here changes what the library computes. The benchmark only
// calls public entry points, reads counters, and wraps layer calls in
// spans recorded from its own files.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = "perfbench-work";  ///< scratch files of this run
};

/// Everything a workload reports. Metric names and units are the ones
/// BENCHMARK.json lists (see kEndToEnd / kPerLayer in main.cpp).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, double> metrics;

  void add(const std::string& name, double value) { metrics[name] = value; }
  /// Records a failed operation and says why on stderr.
  void fail(const std::string& why, std::uint64_t operations = 1);
};

/// Seconds since `t0`.
double since(Clock::time_point t0);
/// CPU seconds used by the whole process (all threads) so far.
double process_cpu_s();
/// Starts a memory window: returns freed heap to the system and resets
/// the kernel's peak-RSS mark, so window_peak_rss_mb() measures what
/// happens from here on, not what set-up left behind.
void start_rss_window();
/// Peak resident set since start_rss_window(), in MiB (the process
/// lifetime peak where the kernel offers no reset).
double window_peak_rss_mb();

double median(std::vector<double> values);
/// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

/// Fresh, empty directory (removed first when it exists).
void fresh_dir(const std::string& path);
std::string read_file(const std::string& path);
std::uint64_t digest(const std::string& text);

// ------------------------------------------------------- registry readers
/// One process-wide counter (0 when it was never created).
std::uint64_t counter(const std::string& name);

/// Per-pass totals from lsml_synth_pass_us / lsml_synth_pass_and_delta,
/// merged by pass kind (the first word of the spelling: "approx -n 5000"
/// counts as "approx").
struct PassTotals {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t ands_removed = 0;
};
std::map<std::string, PassTotals> pass_totals();
/// b - a, pass by pass.
std::map<std::string, PassTotals> pass_delta(
    const std::map<std::string, PassTotals>& a,
    const std::map<std::string, PassTotals>& b);

/// Host description printed with every result: nproc, CPU model, the
/// active SIMD backend (what lsml_sim_kernel_info reports), build type and
/// compiler.
std::string host_line();

// ---------------------------------------------------------- trace readers
struct Span {
  std::string name;
  std::string cat;
  double start_us = 0.0;
  double dur_us = 0.0;
  unsigned tid = 0;
};

/// Every span the tracer holds, ordered by (tid, start, longest first).
std::vector<Span> collect_spans();

/// Per span, the part of its duration covered by spans of category `cat`
/// nested in it on the same thread (overlaps counted once).
double covered_us(const std::vector<Span>& spans, std::size_t parent,
                  const std::string& cat);

/// Indices of the spans nested in `spans[parent]` on its thread.
std::vector<std::size_t> children(const std::vector<Span>& spans,
                                  std::size_t parent);

/// Adds synth.<pass>_s / _calls / _ands_removed for the passes the
/// per-layer split names (approx, rw, rf, b, fs, verify).
void add_pass_metrics(const std::map<std::string, PassTotals>& passes,
                      Report* report);

// ------------------------------------------------------------ input draws
/// Measured cost of one repetition of a workload on the inputs of one draw
/// seed (the calibration tables in *_costs.inc).
struct DrawCost {
  std::uint64_t draw;
  double wall_s;
  double cpu_s;
};

/// The benchmark seed's draw: one of the draw seeds whose measured wall
/// and CPU time are both within `tolerance` of the medians of `costs`, so
/// every benchmark seed runs inputs of the same cost.
std::uint64_t pick_draw(const DrawCost* costs, std::size_t n,
                        std::uint64_t seed, double tolerance);
template <std::size_t N>
std::uint64_t pick_draw(const DrawCost (&costs)[N], std::uint64_t seed,
                        double tolerance) {
  return pick_draw(costs, N, seed, tolerance);
}

/// Calibration: prints one DrawCost row for each draw seed 1..count.
/// `measure(draw)` sets up that draw's inputs, runs two repetitions and
/// returns {wall, cpu} of the faster one.
void print_draw_costs(
    int count,
    const std::function<std::pair<double, double>(std::uint64_t)>& measure);

// -------------------------------------------------------------- workloads
void run_contest(const Args& args, Report* report);
void run_synth(const Args& args, Report* report);
void run_serve(const Args& args, Report* report);
/// Print the calibration tables in contest_costs.inc and synth_costs.inc:
/// per-item costs (`*_items`) and per-draw costs (`*_draws`).
void print_contest_items(const Args& args);
void print_contest_draws(const Args& args);
void print_synth_items(const Args& args);
void print_synth_draws(const Args& args);

}  // namespace perfbench
