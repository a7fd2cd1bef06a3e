// Disk-suite subsystem tests: manifest discovery, the content-hash result
// store, and the incremental contest runner (cache-hit determinism).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "learn/factory.hpp"
#include "suite/generate.hpp"
#include "suite/manifest.hpp"
#include "suite/result_cache.hpp"
#include "suite/runner.hpp"

namespace fs = std::filesystem;

namespace lsml::suite {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "lsml_suite_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
}

constexpr const char* kTinyPla = ".i 2\n.o 1\n.p 2\n01 1\n10 0\n.e\n";

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(SuiteManifest, DiscoversGeneratedTriples) {
  const std::string dir = fresh_dir("gen");
  GenerateOptions options;
  options.first = 0;
  options.last = 1;
  options.rows_per_split = 60;
  const auto names = generate_suite(dir, options);
  ASSERT_EQ(names.size(), 2u);

  const auto entries = discover_suite(dir);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "ex00");
  EXPECT_EQ(entries[0].id, 0);
  EXPECT_EQ(entries[1].name, "ex01");
  EXPECT_EQ(entries[1].id, 1);

  const oracle::Benchmark bench = load_benchmark(entries[0]);
  EXPECT_EQ(bench.train.num_rows(), 60u);
  EXPECT_EQ(bench.valid.num_rows(), 60u);
  EXPECT_EQ(bench.test.num_rows(), 60u);
  EXPECT_GT(bench.num_inputs, 0u);
}

TEST(SuiteManifest, AcceptsUnderscoreSpelling) {
  const std::string dir = fresh_dir("underscore");
  for (const char* split : {"train", "valid", "test"}) {
    write_file(dir + "/legacy_" + split + ".pla", kTinyPla);
  }
  const auto entries = discover_suite(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "legacy");
  EXPECT_EQ(load_benchmark(entries[0]).train.num_rows(), 2u);
}

TEST(SuiteManifest, IncompleteTripleThrows) {
  const std::string dir = fresh_dir("incomplete");
  write_file(dir + "/lonely.train.pla", kTinyPla);
  write_file(dir + "/lonely.valid.pla", kTinyPla);  // no test split
  EXPECT_THROW(discover_suite(dir), std::runtime_error);
}

TEST(SuiteManifest, SplitInputCountMismatchThrows) {
  const std::string dir = fresh_dir("mismatch");
  write_file(dir + "/bad.train.pla", kTinyPla);
  write_file(dir + "/bad.valid.pla", ".i 3\n.o 1\n011 1\n.e\n");
  write_file(dir + "/bad.test.pla", kTinyPla);
  const auto entries = discover_suite(dir);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_THROW(load_benchmark(entries[0]), std::runtime_error);
}

TEST(SuiteManifest, IdsAreStableUnderDirectoryChanges) {
  // An id is a pure function of the benchmark's own name: adding or
  // removing unrelated triples must not shift anyone's RNG stream.
  const std::string dir = fresh_dir("named");
  const auto write_triple = [&](const std::string& name) {
    for (const char* split : {"train", "valid", "test"}) {
      write_file(dir + "/" + name + "." + split + ".pla", kTinyPla);
    }
  };
  write_triple("beta");
  write_triple("ex07");
  const auto before = discover_suite(dir);
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0].name, "beta");
  EXPECT_GE(before[0].id, 0);
  EXPECT_EQ(before[1].name, "ex07");
  EXPECT_EQ(before[1].id, 7) << "numeric suffixes survive mixed suites";

  write_triple("alpha");  // sorts ahead of both existing names
  const auto after = discover_suite(dir);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[1].name, "beta");
  EXPECT_EQ(after[1].id, before[0].id);
  EXPECT_EQ(after[2].name, "ex07");
  EXPECT_EQ(after[2].id, 7);
}

TEST(SuiteResultCache, RoundTripsBitExact) {
  const ResultCache cache(fresh_dir("cache"));
  CachedTask task;
  task.result.benchmark_id = 7;
  task.result.benchmark = "ex07";
  task.result.method = "dt depth=8, pruned";
  task.result.train_acc = 1.0 / 3.0;
  task.result.valid_acc = 0.87519999999999998;
  task.result.test_acc = 2.0 / 7.0;
  task.result.num_ands = 4321;
  task.result.num_levels = 17;
  task.result.synth_trace.push_back(
      {"c", 6000, 5800, 40, 40, 0.125});
  task.result.synth_trace.push_back(
      {"rw -k 6", 5800, 4321, 40, 30, 17.03125});
  task.aag = "aag 0 0 0 0 0\n";
  cache.store("team3", "ex07", 0xdeadbeefULL, task);

  const auto loaded = cache.load("team3", "ex07", 0xdeadbeefULL);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->result.benchmark_id, 7);
  EXPECT_EQ(loaded->result.benchmark, "ex07");
  EXPECT_EQ(loaded->result.method, "dt depth=8, pruned");
  EXPECT_EQ(loaded->result.train_acc, task.result.train_acc);
  EXPECT_EQ(loaded->result.valid_acc, task.result.valid_acc);
  EXPECT_EQ(loaded->result.test_acc, task.result.test_acc);
  EXPECT_EQ(loaded->result.num_ands, 4321u);
  EXPECT_EQ(loaded->result.num_levels, 17u);
  ASSERT_EQ(loaded->result.synth_trace.size(), 2u);
  EXPECT_EQ(loaded->result.synth_trace[0].pass, "c");
  EXPECT_EQ(loaded->result.synth_trace[1].pass, "rw -k 6");
  EXPECT_EQ(loaded->result.synth_trace[1].ands_before, 5800u);
  EXPECT_EQ(loaded->result.synth_trace[1].ands_after, 4321u);
  EXPECT_EQ(loaded->result.synth_trace[1].levels_after, 30u);
  EXPECT_EQ(loaded->result.synth_trace[1].ms, 17.03125)
      << "hexfloat timings round-trip exactly";
  EXPECT_EQ(loaded->result.synth_ands_in(), 6000u);
  EXPECT_EQ(loaded->result.synth_ands_saved(), 6000u - 4321u);
  EXPECT_EQ(loaded->aag, task.aag);

  EXPECT_FALSE(cache.load("team3", "ex07", 0xdeadbef0ULL).has_value())
      << "a different content hash must miss";
  EXPECT_FALSE(cache.load("team4", "ex07", 0xdeadbeefULL).has_value());
}

TEST(SuiteResultCache, DisabledStoreAlwaysMisses) {
  const ResultCache cache("");
  EXPECT_FALSE(cache.enabled());
  cache.store("t", "b", 1, CachedTask{});  // dropped, no crash
  EXPECT_FALSE(cache.load("t", "b", 1).has_value());
}

TEST(SuiteResultCache, PreSchemaBumpEntryIsAMiss) {
  // A well-formed entry written by the v1 layout (no synth trace) must be
  // treated as a plain miss by the v2 reader, never half-parsed.
  const ResultCache cache(fresh_dir("schema_v1"));
  cache.store("t", "b", 21, CachedTask{});  // creates the directory
  write_file(cache.entry_path("t", "b", 21),
             "# lsml-result v1\n"
             "team t\n"
             "benchmark_id 3\n"
             "benchmark b\n"
             "method dt\n"
             "train_acc 0x1p-1\n"
             "valid_acc 0x1p-1\n"
             "test_acc 0x1p-1\n"
             "num_ands 12\n"
             "num_levels 4\n"
             "aag 14\naag 0 0 0 0 0\n");
  EXPECT_FALSE(cache.load("t", "b", 21).has_value());

  // A current-version header over the old field layout is corrupt, not
  // served: the missing synth_passes field fails the parse.
  write_file(cache.entry_path("t", "b", 21),
             "# lsml-result v2\n"
             "team t\n"
             "benchmark_id 3\n"
             "benchmark b\n"
             "method dt\n"
             "train_acc 0x1p-1\n"
             "valid_acc 0x1p-1\n"
             "test_acc 0x1p-1\n"
             "num_ands 12\n"
             "num_levels 4\n"
             "aag 14\naag 0 0 0 0 0\n");
  EXPECT_FALSE(cache.load("t", "b", 21).has_value());
}

TEST(SuiteResultCache, CorruptEntryIsAMiss) {
  const ResultCache cache(fresh_dir("corrupt"));
  cache.store("t", "b", 5, CachedTask{});
  write_file(cache.entry_path("t", "b", 5), "# lsml-result v999\ngarbage\n");
  EXPECT_FALSE(cache.load("t", "b", 5).has_value());
}

TEST(SuiteResultCache, OversizedAagCountIsAMissNotACrash) {
  const ResultCache cache(fresh_dir("oversized"));
  CachedTask task;
  task.aag = "aag 0 0 0 0 0\n";
  cache.store("t", "b", 9, task);
  // Inflate the declared byte count far past the file's actual size.
  std::string text = read_file(cache.entry_path("t", "b", 9));
  const std::size_t pos = text.find("aag 14");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "aag 18446744073709551615");
  write_file(cache.entry_path("t", "b", 9), text);
  EXPECT_FALSE(cache.load("t", "b", 9).has_value());
}

class SuiteRunner : public ::testing::Test {
 protected:
  static std::vector<portfolio::ContestEntry> entries() {
    return {{1, learn::LearnerFactory::from_registry("dt")},
            {2, learn::LearnerFactory::from_registry("dt8")}};
  }

  static void expect_same_runs(const std::vector<portfolio::TeamRun>& a,
                               const std::vector<portfolio::TeamRun>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t e = 0; e < a.size(); ++e) {
      ASSERT_EQ(a[e].results.size(), b[e].results.size());
      EXPECT_EQ(a[e].team, b[e].team);
      for (std::size_t r = 0; r < a[e].results.size(); ++r) {
        EXPECT_EQ(a[e].results[r].test_acc, b[e].results[r].test_acc);
        EXPECT_EQ(a[e].results[r].train_acc, b[e].results[r].train_acc);
        EXPECT_EQ(a[e].results[r].num_ands, b[e].results[r].num_ands);
        EXPECT_EQ(a[e].results[r].num_levels, b[e].results[r].num_levels);
        EXPECT_EQ(a[e].results[r].method, b[e].results[r].method);
      }
    }
  }
};

TEST_F(SuiteRunner, SecondRunIsAllCacheHitsAndBitIdentical) {
  const std::string suite_dir = fresh_dir("run_suite");
  GenerateOptions gen;
  gen.first = 0;
  gen.last = 1;
  gen.rows_per_split = 80;
  generate_suite(suite_dir, gen);

  RunnerOptions options;
  options.out_dir = fresh_dir("run_out");
  options.cache_dir = fresh_dir("run_cache");
  options.num_threads = 2;
  const RunnerReport first = run_suite_dir(suite_dir, entries(), options);
  EXPECT_EQ(first.cache_hits, 0);
  EXPECT_EQ(first.cache_misses, 4);
  ASSERT_EQ(first.benchmarks.size(), 2u);

  const std::string csv = read_file(first.leaderboard_csv_path);
  const std::string json = read_file(first.leaderboard_json_path);
  const std::string aag =
      read_file(options.out_dir + "/aig/dt/" + first.benchmarks[0] + ".aag");
  EXPECT_FALSE(csv.empty());
  EXPECT_FALSE(json.empty());
  EXPECT_FALSE(aag.empty());

  const RunnerReport second = run_suite_dir(suite_dir, entries(), options);
  EXPECT_EQ(second.cache_hits, 4) << "unchanged inputs must all hit";
  EXPECT_EQ(second.cache_misses, 0);
  expect_same_runs(first.runs, second.runs);
  EXPECT_EQ(read_file(second.leaderboard_csv_path), csv);
  EXPECT_EQ(read_file(second.leaderboard_json_path), json);
  EXPECT_EQ(
      read_file(options.out_dir + "/aig/dt/" + first.benchmarks[0] + ".aag"),
      aag);

  // The cache never changes numbers: a cold, serial, cache-less run
  // produces identical results (thread-count invariance included).
  RunnerOptions cold = options;
  cold.cache_dir.clear();
  cold.num_threads = 1;
  cold.write_artifacts = false;
  expect_same_runs(first.runs,
                   run_suite_dir(suite_dir, entries(), cold).runs);

  // Fresh (cache-less) runs are byte-deterministic at any thread count:
  // pass wall times never reach the leaderboards.
  RunnerOptions fresh = options;
  fresh.cache_dir.clear();
  fresh.out_dir = fresh_dir("run_out_fresh1");
  const RunnerReport f1 = run_suite_dir(suite_dir, entries(), fresh);
  fresh.out_dir = fresh_dir("run_out_fresh2");
  fresh.num_threads = 4;
  const RunnerReport f2 = run_suite_dir(suite_dir, entries(), fresh);
  EXPECT_EQ(read_file(f1.leaderboard_csv_path),
            read_file(f2.leaderboard_csv_path));
  EXPECT_EQ(read_file(f1.leaderboard_json_path),
            read_file(f2.leaderboard_json_path));
}

TEST_F(SuiteRunner, CacheKeysCoverSeedSaltAndContents) {
  const std::string suite_dir = fresh_dir("inval_suite");
  GenerateOptions gen;
  gen.first = 0;
  gen.last = 0;
  gen.rows_per_split = 40;
  generate_suite(suite_dir, gen);

  RunnerOptions options;
  options.out_dir = fresh_dir("inval_out");
  options.cache_dir = fresh_dir("inval_cache");
  options.num_threads = 1;
  options.write_artifacts = false;
  const auto warm = [&](const RunnerOptions& o) {
    return run_suite_dir(suite_dir, entries(), o);
  };
  EXPECT_EQ(warm(options).cache_misses, 2);
  EXPECT_EQ(warm(options).cache_misses, 0);

  RunnerOptions reseeded = options;
  reseeded.seed = 2021;
  EXPECT_EQ(warm(reseeded).cache_misses, 2) << "seed is part of the key";

  RunnerOptions salted = options;
  salted.config_salt = 1;
  EXPECT_EQ(warm(salted).cache_misses, 2) << "salt is part of the key";

  RunnerOptions rescripted = options;
  rescripted.opt.script = "resyn2";
  EXPECT_EQ(warm(rescripted).cache_misses, 2)
      << "the optimization script is part of the key";
  RunnerOptions rebudgeted = options;
  rebudgeted.opt.options.node_budget = 123;
  EXPECT_EQ(warm(rebudgeted).cache_misses, 2)
      << "the node budget is part of the key";

  // The same factory under a different team number draws a different RNG
  // stream (contest_rng), so it must never hit the other number's rows.
  const std::vector<portfolio::ContestEntry> renumbered = {
      {3, learn::LearnerFactory::from_registry("dt")},
      {4, learn::LearnerFactory::from_registry("dt8")}};
  EXPECT_EQ(run_suite_dir(suite_dir, renumbered, options).cache_misses, 2)
      << "team number is part of the key";

  // Changing one training file invalidates that benchmark's tasks.
  const auto manifest = discover_suite(suite_dir);
  std::string text = read_file(manifest[0].train_path);
  const std::size_t cube = text.find('\n', text.find(".p"));
  ASSERT_NE(cube, std::string::npos);
  text[cube + 1] = text[cube + 1] == '0' ? '1' : '0';
  write_file(manifest[0].train_path, text);
  EXPECT_EQ(warm(options).cache_misses, 2) << "contents are part of the key";
}

TEST_F(SuiteRunner, HonorsTheSoftTimeBudget) {
  const std::string suite_dir = fresh_dir("budget_suite");
  GenerateOptions gen;
  gen.first = 0;
  gen.last = 0;
  gen.rows_per_split = 40;
  generate_suite(suite_dir, gen);
  RunnerOptions options;
  options.cache_dir.clear();
  options.write_artifacts = false;
  for (const int threads : {1, 2}) {
    options.num_threads = threads;
    options.time_budget_ms = 1;  // tight enough that real runs usually blow it
    const RunnerReport report = run_suite_dir(suite_dir, entries(), options);
    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_EQ(report.runs[0].results.size(), 1u) << "all tasks still run";
    EXPECT_EQ(report.cache_hits + report.cache_misses, 2);
    // The flag is defined by elapsed vs budget, not by how fast this
    // machine happens to be.
    EXPECT_EQ(report.budget_exceeded,
              report.elapsed_ms > static_cast<double>(options.time_budget_ms))
        << threads << " thread(s)";

    options.time_budget_ms = 0;
    const RunnerReport unlimited = run_suite_dir(suite_dir, entries(), options);
    EXPECT_FALSE(unlimited.budget_exceeded) << "0 means no budget";
  }
}

TEST_F(SuiteRunner, RerunDropsStaleArtifacts) {
  const std::string suite_dir = fresh_dir("stale_suite");
  GenerateOptions gen;
  gen.first = 0;
  gen.last = 0;
  gen.rows_per_split = 30;
  generate_suite(suite_dir, gen);
  RunnerOptions options;
  options.out_dir = fresh_dir("stale_out");
  options.cache_dir = fresh_dir("stale_cache");
  options.num_threads = 1;
  run_suite_dir(suite_dir, entries(), options);
  ASSERT_TRUE(fs::exists(options.out_dir + "/aig/dt8/ex00.aag"));

  // Rerunning with fewer entries must not leave the dropped team's
  // circuits lying around next to a leaderboard that no longer covers them.
  run_suite_dir(suite_dir,
                {{1, learn::LearnerFactory::from_registry("dt")}}, options);
  EXPECT_TRUE(fs::exists(options.out_dir + "/aig/dt/ex00.aag"));
  EXPECT_FALSE(fs::exists(options.out_dir + "/aig/dt8"));
}

TEST_F(SuiteRunner, LeaderboardJsonEscapesNames) {
  const std::string suite_dir = fresh_dir("jsonesc");
  for (const char* split : {"train", "valid", "test"}) {
    write_file(suite_dir + "/we\"ird." + split + ".pla", kTinyPla);
  }
  RunnerOptions options;
  options.out_dir = fresh_dir("jsonesc_out");
  options.cache_dir.clear();
  options.num_threads = 1;
  const RunnerReport report = run_suite_dir(
      suite_dir, {{1, learn::LearnerFactory::from_registry("dt")}}, options);
  const std::string json = read_file(report.leaderboard_json_path);
  EXPECT_NE(json.find("we\\\"ird"), std::string::npos)
      << "file stems must be JSON-escaped in the leaderboard";
}

TEST_F(SuiteRunner, DuplicateEntryKeysRejected) {
  const std::string suite_dir = fresh_dir("dup_suite");
  GenerateOptions gen;
  gen.first = 0;
  gen.last = 0;
  gen.rows_per_split = 30;
  generate_suite(suite_dir, gen);
  const std::vector<portfolio::ContestEntry> dup = {
      {1, learn::LearnerFactory::from_registry("dt")},
      {2, learn::LearnerFactory::from_registry("dt")}};
  RunnerOptions options;
  options.write_artifacts = false;
  options.cache_dir.clear();
  EXPECT_THROW(run_suite_dir(suite_dir, dup, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace lsml::suite
