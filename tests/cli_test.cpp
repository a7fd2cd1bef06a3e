// Pins the exit-code contract of the `lsml` driver (cli/cli.hpp): 0 ok,
// 1 runtime failure, 2 usage error — and cec's verdict codes 0/1/2 with 3
// for anything that prevented a verdict. The driver lives in the library
// precisely so these assertions run in-process.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aig/aig.hpp"
#include "aig/aig_io.hpp"
#include "cli/cli.hpp"

namespace lsml {
namespace {

int run_cli(std::vector<std::string> args) {
  // Swallow the subcommand chatter; these tests only assert codes.
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int code = cli::run(args);
  ::testing::internal::GetCapturedStdout();
  ::testing::internal::GetCapturedStderr();
  return code;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "lsml_cli_" + name;
}

TEST(CliExitCodesTest, HelpAndUnknownCommands) {
  EXPECT_EQ(run_cli({}), cli::kExitUsage);  // bare `lsml` prints usage
  EXPECT_EQ(run_cli({"help"}), cli::kExitOk);
  EXPECT_EQ(run_cli({"--help"}), cli::kExitOk);
  EXPECT_EQ(run_cli({"no-such-command"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"teams"}), cli::kExitOk);
}

TEST(CliExitCodesTest, UsageErrorsAreTwoEverywhere) {
  EXPECT_EQ(run_cli({"gen"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"gen", "dir", "--rows"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"gen", "dir", "--bogus"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"ls"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"run"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"run", "dir", "--scale", "huge"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"run", "dir", "--threads", "-3"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"synth"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"synth", "x.aag", "--rounds", "0"}), cli::kExitUsage);
  // "auto" is neither a preset nor a pass; synth has no --cache/--no-cache.
  EXPECT_EQ(run_cli({"run", "dir", "--opt-script", "auto"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"synth", "x.aag", "--script", "auto"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"synth", "x.aag", "--cache", "d"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"synth", "x.aag", "--no-cache"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"serve", "--port", "99999"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"serve", "--bogus"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"query", "--port", "0"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"query", "frobnicate"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"query", "eval"}), cli::kExitUsage);
  EXPECT_EQ(run_cli({"query", "learn"}), cli::kExitUsage);
}

TEST(CliExitCodesTest, RuntimeFailuresAreOne) {
  EXPECT_EQ(run_cli({"ls", temp_path("does_not_exist")}), cli::kExitRuntime);
  EXPECT_EQ(run_cli({"run", temp_path("does_not_exist")}), cli::kExitRuntime);
  EXPECT_EQ(run_cli({"synth", temp_path("missing.aag")}), cli::kExitRuntime);
  // A learner name that is not registered is a bad command line.
  EXPECT_EQ(run_cli({"run", temp_path("x"), "--learners", "nope"}),
            cli::kExitUsage);
}

TEST(CliExitCodesTest, QueryConnectFailureIsRuntime) {
  // Port 1 on localhost: nothing listens there in any sane environment.
  EXPECT_EQ(run_cli({"query", "--port", "1", "ping"}), cli::kExitRuntime);
}

TEST(CliExitCodesTest, CecVerdictsAndErrors) {
  const std::string dir = temp_path("cec");
  std::filesystem::create_directories(dir);
  aig::Aig or2(2);
  or2.add_output(or2.or2(or2.pi(0), or2.pi(1)));
  aig::Aig and2(2);
  and2.add_output(and2.and2(and2.pi(0), and2.pi(1)));
  const std::string or_path = dir + "/or.aag";
  const std::string and_path = dir + "/and.aag";
  aig::write_aag_file(or2, or_path);
  aig::write_aag_file(and2, and_path);

  EXPECT_EQ(run_cli({"cec", or_path, or_path}), cli::kExitOk);
  EXPECT_EQ(run_cli({"cec", or_path, and_path}), cli::kExitCecNotEquivalent);
  // Errors — usage or runtime — are 3, never a verdict code.
  EXPECT_EQ(run_cli({"cec", or_path}), cli::kExitCecError);
  EXPECT_EQ(run_cli({"cec", or_path, and_path, "--bogus"}),
            cli::kExitCecError);
  EXPECT_EQ(run_cli({"cec", or_path, dir + "/missing.aag"}),
            cli::kExitCecError);
  std::filesystem::remove_all(dir);
}

TEST(CliExitCodesTest, SynthRunsOnARealFile) {
  const std::string dir = temp_path("synth");
  std::filesystem::create_directories(dir);
  aig::Aig g(3);
  g.add_output(g.and2(g.and2(g.pi(0), g.pi(1)), g.pi(2)));
  const std::string in_path = dir + "/in.aag";
  aig::write_aag_file(g, in_path);
  EXPECT_EQ(run_cli({"synth", in_path, "--script", "fast"}), cli::kExitOk);
  EXPECT_EQ(run_cli({"synth", in_path, "--script", "zz"}), cli::kExitUsage);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lsml
