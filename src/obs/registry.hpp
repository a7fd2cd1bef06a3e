#pragma once
// obs: process-wide telemetry registry.
//
// Counters, gauges, and log2-bucketed latency histograms, named with an
// embedded-label convention (`lsml_server_op_us{op="eval"}`) and exported
// as Prometheus text exposition. Design constraints, in order:
//
//  1. Telemetry is side-channel only. Nothing in here may influence any
//     response, cache entry, or artifact byte. The registry is written on
//     hot paths and read by `metrics`/benches; both directions are
//     relaxed-atomic and TSan-clean.
//  2. The write path is lock-free. Counter::add is a relaxed fetch_add on
//     a cache-line-private cell (cells are striped per thread and merged
//     on read), Histogram::record is three relaxed fetch_adds. The only
//     mutex in the subsystem guards metric *registration* and exposition.
//  3. Metrics owned by short-lived objects (a `server::Service`'s request
//     counters) join the process registry through a RAII `Registration`
//     so `stats` and `metrics` can never disagree, and leave it on
//     destruction so tests with fresh Service instances stay isolated.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace lsml::obs {

// A monotonically increasing counter striped across cache-line-aligned
// cells: each thread picks one cell round-robin at first use and only ever
// adds to that cell, so concurrent writers never contend on a line.
// Reads (load) merge all cells; add has no return value, since a striped
// counter has no cheap "value before this add".
class Counter {
 public:
  static constexpr std::size_t kCells = 16;

  Counter() noexcept = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    cell().fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t load() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  // Not linearizable against concurrent adds; for tests and the
  // PassManager::reset_counters() hook only.
  void reset() noexcept {
    for (Cell& c : cells_) {
      c.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Cell {
    alignas(64) std::atomic<std::uint64_t> v{0};
  };
  static std::size_t slot() noexcept;
  std::atomic<std::uint64_t>& cell() noexcept { return cells_[slot()].v; }

  std::array<Cell, kCells> cells_{};
};

// A last-write-wins signed value (queue depths, cache occupancy).
class Gauge {
 public:
  Gauge() noexcept = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t load() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed log2 buckets: bucket 0 holds the value 0, bucket i (i >= 1) holds
// values v with bit_width(v) == i, i.e. 2^(i-1) <= v < 2^i. 40 buckets
// cover [0, 2^39) — about 9 days when recording microseconds. Recording is
// three relaxed fetch_adds; merging two histograms is bucket-wise addition,
// so snapshots merge associatively (pinned by obs_test).
inline constexpr std::size_t kHistogramBuckets = 40;

inline std::size_t histogram_bucket_index(std::uint64_t v) noexcept {
  const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

// Inclusive upper bound of bucket i (2^i - 1); the last bucket is +Inf.
inline std::uint64_t histogram_bucket_le(std::size_t i) noexcept {
  return (std::uint64_t{1} << i) - 1;
}

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  void merge(const HistogramSnapshot& other) noexcept;
  // Bucket-interpolated quantile, q in [0, 1]. Returns 0 when empty.
  double quantile(double q) const noexcept;
  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

class Histogram {
 public:
  Histogram() noexcept = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t v) noexcept {
    buckets_[histogram_bucket_index(v)].fetch_add(1,
                                                  std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  HistogramSnapshot snapshot() const noexcept;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

// The process-wide registry. Metric names follow
//   lsml_<subsystem>_<what>[_total|_us|_ns|_bytes]{label="value",...}
// where the label block is part of the registry key. Two kinds of entry
// share a name space: metrics the registry owns (subsystem singletons,
// created by counter()/gauge()/histogram() and never destroyed) and
// externally-owned metrics aliased in via Registration (per-instance stats
// structs). Exposition merges same-named entries by summation, so N live
// Service instances export one combined series.
class Registry {
 public:
  static Registry& instance();

  // Get-or-create an owned metric. References stay valid for the process
  // lifetime; callers cache them in function-local statics.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // RAII alias for an externally-owned metric. Unregisters on destruction;
  // destroy before the metric it points at.
  class Registration {
   public:
    Registration() noexcept = default;
    Registration(Registration&& other) noexcept { *this = std::move(other); }
    Registration& operator=(Registration&& other) noexcept;
    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;
    ~Registration() { release(); }
    void release() noexcept;

   private:
    friend class Registry;
    Registration(Registry* r, std::uint64_t id) noexcept
        : registry_(r), id_(id) {}
    Registry* registry_ = nullptr;
    std::uint64_t id_ = 0;
  };

  [[nodiscard]] Registration register_counter(const std::string& name,
                                              const Counter* c);
  [[nodiscard]] Registration register_histogram(const std::string& name,
                                                const Histogram* h);
  // Gauge sampled at exposition time (cache occupancy, config echoes).
  [[nodiscard]] Registration register_gauge_fn(
      const std::string& name, std::function<std::int64_t()> fn);

  // Point reads for benches and the --watch client. Same-named entries
  // are merged exactly as exposition would merge them.
  std::uint64_t counter_value(const std::string& name) const;
  std::optional<HistogramSnapshot> histogram_snapshot(
      const std::string& name) const;

  // Deterministically ordered Prometheus text exposition: families sorted
  // by name, one # TYPE line each, histogram buckets cumulative with
  // trailing empty buckets elided before the +Inf bound.
  std::string expose_prometheus() const;

 private:
  Registry() = default;
  void unregister(std::uint64_t id) noexcept;

  struct ExternalCounter {
    std::uint64_t id;
    const Counter* c;
  };
  struct ExternalHistogram {
    std::uint64_t id;
    const Histogram* h;
  };
  struct ExternalGauge {
    std::uint64_t id;
    std::function<std::int64_t()> fn;
  };

  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::vector<ExternalCounter>> ext_counters_;
  std::map<std::string, std::vector<ExternalHistogram>> ext_histograms_;
  std::map<std::string, std::vector<ExternalGauge>> ext_gauges_;
};

}  // namespace lsml::obs
