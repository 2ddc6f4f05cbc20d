// End-to-end crash test: run the real pals_sweep binary as a child
// process, SIGKILL it at a deterministic journal point (--kill-after),
// resume with --resume, and require the recovered results.csv /
// errors.csv to be byte-identical to an uninterrupted run — at both
// --jobs 1 and --jobs 8. Also covers the graceful-interrupt path
// (--interrupt-after standing in for ^C) and its distinct exit code.
//
// The binary path arrives via the PALS_SWEEP_BIN compile definition
// (tests/CMakeLists.txt).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "scratch_dir.hpp"
#include "util/exit_codes.hpp"

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace pals {
namespace {

namespace fs = std::filesystem;

#ifndef _WIN32

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Run pals_sweep with `args`; returns the exit code, with a death by
/// signal N folded to the shell convention 128+N (SIGKILL => 137).
int run_sweep_tool(const std::string& args) {
  const std::string command =
      std::string(PALS_SWEEP_BIN) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// 16-cell grid: enough cells that a kill after a handful of journal
/// appends always leaves work for the resume to do.
fs::path write_grid() {
  const fs::path path = scratch_dir() / "kill_resume.grid";
  std::ofstream out(path);
  out << "workloads  = cg:8:0.9:2, is:8:0.8:2\n"
      << "gear_sets  = uniform-4, avg-discrete\n"
      << "algorithms = max, avg\n"
      << "betas      = 0.4, 0.6\n"
      << "iterations = 2\n";
  return path;
}

class KillResume : public ::testing::Test {
 protected:
  void SetUp() override {
    grid_ = write_grid();
    reference_ = fresh_dir("reference");
    ASSERT_EQ(run_sweep_tool("--grid=" + grid_.string() + " --jobs=2 --quiet "
                             "--run-dir=" + reference_.string()),
              exit_code(ToolExit::kOk));
  }

  fs::path fresh_dir(const std::string& name) {
    const fs::path dir = scratch_dir() / name;
    fs::remove_all(dir);
    return dir;
  }

  /// The crash-safety contract: after recovery, DIR's artifacts match the
  /// uninterrupted reference byte for byte.
  void expect_matches_reference(const fs::path& dir) {
    EXPECT_EQ(slurp(dir / "results.csv"), slurp(reference_ / "results.csv"));
    EXPECT_EQ(slurp(dir / "errors.csv"), slurp(reference_ / "errors.csv"));
  }

  fs::path grid_;
  fs::path reference_;
};

TEST_F(KillResume, SigkillMidRunThenResumeSerialIsByteIdentical) {
  const fs::path dir = fresh_dir("kill_serial");
  EXPECT_EQ(run_sweep_tool("--grid=" + grid_.string() + " --jobs=2 --quiet "
                           "--run-dir=" + dir.string() + " --kill-after=5"),
            137);  // died by SIGKILL, not by exit()
  ASSERT_TRUE(fs::exists(dir / "journal.palsj"));
  // A SIGKILL leaves no results.csv — only the journal survived.
  EXPECT_EQ(run_sweep_tool("--grid=" + grid_.string() + " --jobs=1 --quiet "
                           "--resume=" + dir.string()),
            exit_code(ToolExit::kOk));
  expect_matches_reference(dir);
}

TEST_F(KillResume, SigkillMidRunThenResumeParallelIsByteIdentical) {
  const fs::path dir = fresh_dir("kill_parallel");
  EXPECT_EQ(run_sweep_tool("--grid=" + grid_.string() + " --jobs=1 --quiet "
                           "--run-dir=" + dir.string() + " --kill-after=3"),
            137);
  EXPECT_EQ(run_sweep_tool("--grid=" + grid_.string() + " --jobs=8 --quiet "
                           "--resume=" + dir.string()),
            exit_code(ToolExit::kOk));
  expect_matches_reference(dir);
}

TEST_F(KillResume, InterruptExitsResumableCodeAndResumes) {
  const fs::path dir = fresh_dir("interrupt");
  // --interrupt-after drives the same flag the SIGINT/SIGTERM handler
  // sets, at a deterministic point.
  EXPECT_EQ(run_sweep_tool("--grid=" + grid_.string() + " --jobs=2 --quiet "
                           "--run-dir=" + dir.string() +
                           " --interrupt-after=3"),
            exit_code(ToolExit::kInterrupted));
  // The graceful path still wrote (partial) artifacts atomically.
  EXPECT_TRUE(fs::exists(dir / "results.csv"));
  EXPECT_TRUE(fs::exists(dir / "summary.stats"));
  EXPECT_EQ(run_sweep_tool("--grid=" + grid_.string() + " --jobs=4 --quiet "
                           "--resume=" + dir.string()),
            exit_code(ToolExit::kOk));
  expect_matches_reference(dir);
}

TEST_F(KillResume, ResumeOfCompletedRunIsIdempotent) {
  // Resuming the *reference* run (nothing pending) must rewrite identical
  // artifacts and exit clean.
  const std::string before = slurp(reference_ / "results.csv");
  EXPECT_EQ(run_sweep_tool("--grid=" + grid_.string() + " --jobs=8 --quiet "
                           "--resume=" + reference_.string()),
            exit_code(ToolExit::kOk));
  EXPECT_EQ(slurp(reference_ / "results.csv"), before);
}

TEST_F(KillResume, KillHooksRequireRunDir) {
  EXPECT_EQ(run_sweep_tool("--grid=" + grid_.string() + " --kill-after=1"),
            exit_code(ToolExit::kUsage));
}

#else  // _WIN32

TEST(KillResume, SkippedOnWindows) { GTEST_SKIP(); }

#endif

}  // namespace
}  // namespace pals
