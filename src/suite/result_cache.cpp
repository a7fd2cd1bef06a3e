#include "suite/result_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "aig/aig_io.hpp"
#include "core/bits.hpp"

namespace fs = std::filesystem;

namespace lsml::suite {
namespace {

constexpr const char* kMagic = "# lsml-result v";

std::string header_line() {
  return kMagic + std::to_string(kResultCacheSchemaVersion);
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string aag_digest(const std::string& aag) {
  return hex16(core::fnv1a(aag.data(), aag.size()));
}

/// Hexfloat spelling: the only decimal-free, bit-exact double round-trip.
std::string double_repr(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool parse_double(const std::string& text, double* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin && *end == '\0';
}

/// Reads "key value" where value is the rest of the line; empty on miss.
bool next_field(std::istream& is, const std::string& key, std::string* value) {
  std::string line;
  if (!std::getline(is, line) || line.size() < key.size() + 1 ||
      line.compare(0, key.size(), key) != 0 || line[key.size()] != ' ') {
    return false;
  }
  *value = line.substr(key.size() + 1);
  return true;
}

}  // namespace

std::uint64_t task_content_hash(const oracle::Benchmark& bench,
                                std::uint64_t seed) {
  return task_content_hash(bench.id, seed, bench.train.content_hash(),
                           bench.valid.content_hash(),
                           bench.test.content_hash());
}

std::uint64_t task_content_hash(int benchmark_id, std::uint64_t seed,
                                std::uint64_t train_hash,
                                std::uint64_t valid_hash,
                                std::uint64_t test_hash) {
  // Combine the independent digests; any single-bit change in any
  // dataset, the id, the seed, or the schema version flips the key and
  // forces a recompute.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL * (kResultCacheSchemaVersion + 1);
  h = core::hash_combine(h, static_cast<std::uint64_t>(benchmark_id));
  h = core::hash_combine(h, seed);
  h = core::hash_combine(h, train_hash);
  h = core::hash_combine(h, valid_hash);
  return core::hash_combine(h, test_hash);
}

std::string ResultCache::entry_path(const std::string& team_key,
                                    const std::string& benchmark,
                                    std::uint64_t content_hash) const {
  return (fs::path(dir_) / team_key /
          (benchmark + "-" + hex16(content_hash) + ".result"))
      .string();
}

std::optional<CachedTask> ResultCache::load(const std::string& team_key,
                                            const std::string& benchmark,
                                            std::uint64_t content_hash,
                                            bool want_aag) const {
  if (!enabled()) {
    return std::nullopt;
  }
  std::ifstream is(entry_path(team_key, benchmark, content_hash),
                   std::ios::binary);
  if (!is) {
    return std::nullopt;
  }
  std::string line;
  if (!std::getline(is, line) || line != header_line()) {
    return std::nullopt;  // written by an incompatible build
  }
  CachedTask task;
  portfolio::BenchmarkResult& r = task.result;
  std::string value;
  const auto read_u32 = [&](const char* key, std::uint32_t* out) {
    if (!next_field(is, key, &value)) {
      return false;
    }
    char* end = nullptr;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return false;
    }
    *out = static_cast<std::uint32_t>(v);
    return true;
  };
  const auto read_double = [&](const char* key, double* out) {
    return next_field(is, key, &value) && parse_double(value, out);
  };
  if (!next_field(is, "team", &value)) {
    return std::nullopt;
  }
  r.benchmark_id = 0;
  std::uint32_t id = 0;
  if (!read_u32("benchmark_id", &id)) {
    return std::nullopt;
  }
  r.benchmark_id = static_cast<int>(id);
  if (!next_field(is, "benchmark", &r.benchmark) ||
      !next_field(is, "method", &r.method) ||
      !read_double("train_acc", &r.train_acc) ||
      !read_double("valid_acc", &r.valid_acc) ||
      !read_double("test_acc", &r.test_acc) ||
      !read_u32("num_ands", &r.num_ands) ||
      !read_u32("num_levels", &r.num_levels)) {
    return std::nullopt;
  }
  if (!next_field(is, "verified", &value) ||
      !synth::verify_status_from_string(value, &r.verified)) {
    return std::nullopt;
  }
  std::uint32_t num_passes = 0;
  if (!read_u32("synth_passes", &num_passes) || num_passes > (1u << 20)) {
    return std::nullopt;
  }
  r.synth_trace.reserve(num_passes);
  for (std::uint32_t p = 0; p < num_passes; ++p) {
    if (!next_field(is, "pass", &value)) {
      return std::nullopt;
    }
    // "<ands_before> <ands_after> <levels_before> <levels_after> <ms-hex>
    //  <spelling...>" — the spelling goes last because it contains spaces.
    synth::PassStats stats;
    std::istringstream fields(value);
    std::string ms_text;
    if (!(fields >> stats.ands_before >> stats.ands_after >>
          stats.levels_before >> stats.levels_after >> ms_text) ||
        !parse_double(ms_text, &stats.ms)) {
      return std::nullopt;
    }
    std::getline(fields >> std::ws, stats.pass);
    if (stats.pass.empty()) {
      return std::nullopt;
    }
    r.synth_trace.push_back(std::move(stats));
  }
  std::string digest;
  if (!next_field(is, "aag_fnv1a", &digest) ||
      !next_field(is, "aag", &value)) {
    return std::nullopt;
  }
  char* end = nullptr;
  const unsigned long long aag_bytes = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return std::nullopt;
  }
  if (!want_aag) {
    return task;  // metrics are complete; skip the circuit body
  }
  // Bound the count by what the file can still hold: a corrupt entry must
  // be a miss, not a std::length_error out of resize().
  const std::streampos body_start = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos file_end = is.tellg();
  if (body_start < 0 || file_end < body_start ||
      static_cast<unsigned long long>(file_end - body_start) < aag_bytes) {
    return std::nullopt;
  }
  is.seekg(body_start);
  task.aag.resize(aag_bytes);
  is.read(task.aag.data(), static_cast<std::streamsize>(aag_bytes));
  if (static_cast<unsigned long long>(is.gcount()) != aag_bytes) {
    return std::nullopt;  // truncated entry
  }
  // A well-formed but altered body (a flipped fanin digit) would otherwise
  // be served as this row's artifact: check the digest, then that the body
  // is the circuit the metrics describe.
  if (aag_digest(task.aag) != digest) {
    return std::nullopt;
  }
  try {
    std::istringstream body(task.aag);
    const aig::Aig circuit = aig::read_aag(body);
    if (circuit.num_ands() != r.num_ands ||
        circuit.num_levels() != r.num_levels) {
      return std::nullopt;
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return task;
}

void ResultCache::store(const std::string& team_key,
                        const std::string& benchmark,
                        std::uint64_t content_hash,
                        const CachedTask& task) const {
  if (!enabled()) {
    return;
  }
  std::error_code ec;
  const fs::path path = entry_path(team_key, benchmark, content_hash);
  fs::create_directories(path.parent_path(), ec);
  if (ec) {
    return;
  }
  // Write-then-rename so readers never observe a torn entry.
  const fs::path tmp = path.string() + ".tmp";
  bool written = false;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (os) {
      const portfolio::BenchmarkResult& r = task.result;
      os << header_line() << '\n'
         << "team " << team_key << '\n'
         << "benchmark_id " << r.benchmark_id << '\n'
         << "benchmark " << r.benchmark << '\n'
         << "method " << r.method << '\n'
         << "train_acc " << double_repr(r.train_acc) << '\n'
         << "valid_acc " << double_repr(r.valid_acc) << '\n'
         << "test_acc " << double_repr(r.test_acc) << '\n'
         << "num_ands " << r.num_ands << '\n'
         << "num_levels " << r.num_levels << '\n'
         << "verified " << synth::to_string(r.verified) << '\n'
         << "synth_passes " << r.synth_trace.size() << '\n';
      for (const synth::PassStats& s : r.synth_trace) {
        os << "pass " << s.ands_before << ' ' << s.ands_after << ' '
           << s.levels_before << ' ' << s.levels_after << ' '
           << double_repr(s.ms) << ' ' << s.pass << '\n';
      }
      os << "aag_fnv1a " << aag_digest(task.aag) << '\n'
         << "aag " << task.aag.size() << '\n'
         << task.aag;
      written = static_cast<bool>(os);
    }
  }
  if (written) {
    fs::rename(tmp, path, ec);
  }
  if (!written || ec) {
    // Never leave a torn .tmp behind (e.g. disk-full mid-write).
    fs::remove(tmp, ec);
  }
}

}  // namespace lsml::suite
