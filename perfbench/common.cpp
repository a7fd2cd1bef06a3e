#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/bits.hpp"
#include "core/rng.hpp"
#include "core/simd.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"

namespace perfbench {

void Report::fail(const std::string& why, std::uint64_t operations) {
  failed += operations;
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void start_rss_window() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // resets VmHWM
}

double window_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::uint64_t digest(const std::string& text) {
  return lsml::core::fnv1a(text.data(), text.size());
}

std::uint64_t counter(const std::string& name) {
  return lsml::obs::Registry::instance().counter_value(name);
}

namespace {

/// Value of an exposition line "<family>_<suffix>{pass="<spelling>"} <v>".
bool parse_pass_line(const std::string& line, const std::string& family,
                     std::string* suffix, std::string* pass, double* value) {
  if (line.rfind(family + "_", 0) != 0) {
    return false;
  }
  const std::size_t brace = line.find("{pass=\"");
  const std::size_t close = line.find("\"}", brace);
  if (brace == std::string::npos || close == std::string::npos) {
    return false;
  }
  *suffix = line.substr(family.size() + 1, brace - family.size() - 1);
  const std::string spelling = line.substr(brace + 7, close - brace - 7);
  *pass = spelling.substr(0, spelling.find(' '));
  *value = std::strtod(line.c_str() + close + 2, nullptr);
  return true;
}

}  // namespace

std::map<std::string, PassTotals> pass_totals() {
  std::map<std::string, PassTotals> out;
  std::istringstream text(
      lsml::obs::Registry::instance().expose_prometheus());
  std::string line;
  while (std::getline(text, line)) {
    std::string suffix;
    std::string pass;
    double value = 0.0;
    if (parse_pass_line(line, "lsml_synth_pass_us", &suffix, &pass, &value)) {
      if (suffix == "sum") {
        out[pass].seconds += value * 1e-6;
      } else if (suffix == "count") {
        out[pass].calls += static_cast<std::uint64_t>(value);
      }
    } else if (parse_pass_line(line, "lsml_synth_pass_and_delta", &suffix,
                               &pass, &value) &&
               suffix == "sum") {
      out[pass].ands_removed += static_cast<std::uint64_t>(value);
    }
  }
  return out;
}

std::map<std::string, PassTotals> pass_delta(
    const std::map<std::string, PassTotals>& a,
    const std::map<std::string, PassTotals>& b) {
  std::map<std::string, PassTotals> out;
  for (const auto& [pass, after] : b) {
    PassTotals d = after;
    if (const auto it = a.find(pass); it != a.end()) {
      d.seconds -= it->second.seconds;
      d.calls -= it->second.calls;
      d.ands_removed -= it->second.ands_removed;
    }
    out[pass] = d;
  }
  return out;
}

std::string host_line() {
  std::string model = "?";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"cpu\": \"%s\", \"simd\": \"%s\", "
                "\"build\": \"%s\", \"compiler\": \"%s\"}",
                std::thread::hardware_concurrency(), model.c_str(),
                lsml::core::simd::ops().name, PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER);
  return buf;
}

std::uint64_t pick_draw(const DrawCost* costs, std::size_t n,
                        std::uint64_t seed, double tolerance) {
  std::vector<double> walls;
  std::vector<double> cpus;
  for (std::size_t i = 0; i < n; ++i) {
    walls.push_back(costs[i].wall_s);
    cpus.push_back(costs[i].cpu_s);
  }
  const double wall = median(walls);
  const double cpu = median(cpus);
  std::vector<std::uint64_t> alike;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(costs[i].wall_s - wall) <= tolerance * wall &&
        std::abs(costs[i].cpu_s - cpu) <= tolerance * cpu) {
      alike.push_back(costs[i].draw);
    }
  }
  if (alike.empty()) {
    throw std::runtime_error("no calibrated draw within the cost band");
  }
  lsml::core::Rng rng(lsml::core::hash_combine(seed, 0xa11cedULL));
  return alike[rng.below(alike.size())];
}

void print_draw_costs(
    int count,
    const std::function<std::pair<double, double>(std::uint64_t)>& measure) {
  std::printf("// host: %s\n", host_line().c_str());
  for (int draw = 1; draw <= count; ++draw) {
    const auto [wall, cpu] = measure(static_cast<std::uint64_t>(draw));
    std::printf("    {%d, %.4f, %.4f},\n", draw, wall, cpu);
    std::fflush(stdout);
  }
}

std::vector<Span> collect_spans() {
  std::ostringstream os;
  lsml::obs::Tracer::export_chrome_trace(os);
  std::istringstream in(os.str());
  std::vector<Span> spans;
  std::string line;
  while (std::getline(in, line)) {
    Span s;
    if (std::sscanf(line.c_str(),
                    "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%lf,\"dur\":%lf,",
                    &s.tid, &s.start_us, &s.dur_us) != 3) {
      continue;  // the header and footer lines
    }
    const std::size_t cat = line.find("\"cat\":\"");
    const std::size_t name = line.find("\",\"name\":\"", cat);
    const std::size_t end = line.rfind("\"}");
    if (cat == std::string::npos || name == std::string::npos ||
        end == std::string::npos || end < name + 10) {
      continue;
    }
    s.cat = line.substr(cat + 7, name - cat - 7);
    s.name = line.substr(name + 10, end - name - 10);
    spans.push_back(std::move(s));
  }
  return spans;
}

std::vector<std::size_t> children(const std::vector<Span>& spans,
                                  std::size_t parent) {
  const Span& p = spans[parent];
  // Exported times are rounded to the nanosecond; allow for that.
  const double end = p.start_us + p.dur_us + 0.002;
  std::vector<std::size_t> out;
  for (std::size_t i = parent + 1;
       i < spans.size() && spans[i].tid == p.tid && spans[i].start_us < end;
       ++i) {
    if (spans[i].start_us + spans[i].dur_us <= end) {
      out.push_back(i);
    }
  }
  return out;
}

double covered_us(const std::vector<Span>& spans, std::size_t parent,
                  const std::string& cat) {
  double covered = 0.0;
  double reach = -1.0;  // end of the union so far (children sorted by start)
  for (const std::size_t i : children(spans, parent)) {
    const Span& s = spans[i];
    if (s.cat != cat) {
      continue;
    }
    const double begin = std::max(s.start_us, reach);
    const double end = s.start_us + s.dur_us;
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return covered;
}

void add_pass_metrics(const std::map<std::string, PassTotals>& passes,
                      Report* report) {
  for (const char* pass : {"approx", "rw", "rf", "b", "fs", "verify"}) {
    const auto it = passes.find(pass);
    const PassTotals p = it == passes.end() ? PassTotals{} : it->second;
    const std::string prefix = std::string("synth.") + pass;
    report->add(prefix + "_s", p.seconds);
    report->add(prefix + "_calls", static_cast<double>(p.calls));
    report->add(prefix + "_ands_removed", static_cast<double>(p.ands_removed));
  }
}

}  // namespace perfbench
