#pragma once
// Content-hash-keyed incremental result store.
//
// Maps (team key, benchmark name, content hash) to a completed contest
// task: the Table III metrics plus the synthesized circuit as AIGER text.
// The content hash covers the benchmark's three datasets, the contest
// seed, and kResultCacheSchemaVersion, so an entry is served only when
// re-running would provably reproduce it bit-for-bit; any change to the
// inputs or to result-affecting code misses and recomputes. Entries are
// one self-describing text file each:
//   <dir>/<team_key>/<benchmark>-<hash16>.result
// Doubles are stored as hexfloats, so a cached metric round-trips exactly.

#include <cstdint>
#include <optional>
#include <string>

#include "oracle/suite.hpp"
#include "portfolio/contest.hpp"

namespace lsml::suite {

/// Bump whenever anything that changes contest numbers changes (per-task
/// RNG derivation, learner defaults, metric definitions, entry format), so
/// caches written by older builds are recomputed, never silently served.
/// v2: circuits are optimized by the synth::PassManager (learners return
/// raw AIGs) and entries carry the per-pass synth trace.
/// v3: entries carry the SAT-certification verdict (`verified` field,
/// synth::VerifyStatus spelling) behind the leaderboard's verified
/// column.
/// v4: entries carry the optimization script (`script` field, canonical
/// synth::Script text) behind the leaderboard's script column; cache keys
/// are salted by synth::OptRequest::fingerprint() instead of a bare
/// script + options digest.
inline constexpr std::uint32_t kResultCacheSchemaVersion = 4;

/// A completed (team, benchmark) task, as cached. The result's
/// synth_trace (per-pass sizes and wall time) round-trips with it, so a
/// cache-served leaderboard reports the same optimization stats as the
/// run that populated it.
struct CachedTask {
  portfolio::BenchmarkResult result;
  std::string aag;  ///< ASCII AIGER text of the synthesized circuit
};

/// Digest of everything a task's outcome depends on besides the learner:
/// dataset contents, benchmark identity, contest seed, schema version.
std::uint64_t task_content_hash(const oracle::Benchmark& bench,
                                std::uint64_t seed);

/// The same digest from precomputed dataset content hashes — for callers
/// (the serve daemon's model ids) that hold datasets outside a Benchmark
/// and must not copy them just to hash. Kept in one implementation with
/// the overload above; any change to the recipe is a schema bump.
std::uint64_t task_content_hash(int benchmark_id, std::uint64_t seed,
                                std::uint64_t train_hash,
                                std::uint64_t valid_hash,
                                std::uint64_t test_hash);

class ResultCache {
 public:
  /// An empty `dir` disables the store: loads miss, stores are dropped.
  explicit ResultCache(std::string dir) : dir_(std::move(dir)) {}

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] bool enabled() const { return !dir_.empty(); }

  [[nodiscard]] std::string entry_path(const std::string& team_key,
                                       const std::string& benchmark,
                                       std::uint64_t content_hash) const;

  /// Loads a cached task; nullopt on miss, disabled store, or a corrupt /
  /// schema-stale entry (which is treated as a plain miss). Metrics-only
  /// callers pass want_aag=false to skip reading the circuit body.
  [[nodiscard]] std::optional<CachedTask> load(const std::string& team_key,
                                               const std::string& benchmark,
                                               std::uint64_t content_hash,
                                               bool want_aag = true) const;

  /// Persists a completed task. Best-effort: I/O failures are swallowed so
  /// a read-only cache directory degrades to recompute-always.
  void store(const std::string& team_key, const std::string& benchmark,
             std::uint64_t content_hash, const CachedTask& task) const;

 private:
  std::string dir_;
};

}  // namespace lsml::suite
