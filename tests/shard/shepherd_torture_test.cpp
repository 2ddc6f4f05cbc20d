// Shard-supervisor torture: drive the real pals_shepherd binary with
// its chaos hooks — SIGKILL one shard twice mid-run and SIGSTOP another
// until the watchdog fires — and require the merged results.csv /
// errors.csv to be byte-identical to a single-process `pals_sweep
// --jobs=1` run. Also the degraded path: a shard whose restart budget
// is exhausted must end the run with exit code 5 ("completed
// degraded"), its cells quarantined as "shard-lost", never a hang.
//
// Binary paths arrive via the PALS_SHEPHERD_BIN / PALS_SWEEP_BIN
// compile definitions (tests/CMakeLists.txt).
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

int run_tool(const std::string& binary, const std::string& args) {
  const std::string command = binary + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// 48-cell grid, heavy enough that the chaos kills always land while
/// the victim shard still has work in flight: a shard's 16 cells must
/// outlast several 20 ms supervisor polls after each restart.
fs::path write_grid() {
  const fs::path path = scratch_dir() / "shepherd_torture.grid";
  std::ofstream out(path);
  out << "workloads  = CG-32, MG-32, lu:16:0.93:12, ft:16:0.9:12\n"
      << "gear_sets  = uniform-6, avg-discrete, continuous-unlimited\n"
      << "algorithms = max, avg\n"
      << "betas      = 0.4, 0.6\n"
      << "iterations = 16\n";
  return path;
}

class ShepherdTorture : public ::testing::Test {
 protected:
  void SetUp() override {
    grid_ = write_grid();
    reference_ = fresh_dir("reference");
    ASSERT_EQ(run_tool(PALS_SWEEP_BIN,
                       "--grid=" + grid_.string() + " --jobs=1 --quiet "
                       "--run-dir=" + reference_.string()),
              exit_code(ToolExit::kOk));
  }

  fs::path fresh_dir(const std::string& name) {
    const fs::path dir = scratch_dir() / name;
    fs::remove_all(dir);
    return dir;
  }

  int run_shepherd(const fs::path& dir, const std::string& extra) {
    return run_tool(PALS_SHEPHERD_BIN,
                    "--grid=" + grid_.string() + " --run-dir=" + dir.string() +
                    " --sweep-bin=" + std::string(PALS_SWEEP_BIN) +
                    " --jobs=1 --quiet --backoff-base=0.01 --backoff-cap=0.05 " +
                    extra);
  }

  fs::path grid_;
  fs::path reference_;
};

TEST_F(ShepherdTorture, SigkillTwiceAndStallMergeByteIdentical) {
  const fs::path dir = fresh_dir("chaos");
  // Shard 1 (an arbitrary but deterministic victim) is SIGKILLed twice
  // mid-run; shard 2 is SIGSTOPped once so only the heartbeat watchdog
  // can tell it from a slow worker. Budget of 4 restarts absorbs all
  // three faults.
  EXPECT_EQ(run_shepherd(dir,
                         "--shards=3 --chaos-kill=1:2 --chaos-stop=2 "
                         "--heartbeat=0.05 --watchdog=0.8 "
                         "--max-shard-restarts=4"),
            exit_code(ToolExit::kOk));
  EXPECT_EQ(slurp(dir / "results.csv"), slurp(reference_ / "results.csv"));
  EXPECT_EQ(slurp(dir / "errors.csv"), slurp(reference_ / "errors.csv"));
  // The supervisor summary records the injected faults it absorbed.
  const std::string stats = slurp(dir / "shepherd.stats");
  EXPECT_NE(stats.find("chaos_kills"), std::string::npos);
  EXPECT_NE(stats.find("lost_shards = 0"), std::string::npos) << stats;
}

TEST_F(ShepherdTorture, ExhaustedBudgetDegradesInsteadOfHanging) {
  const fs::path dir = fresh_dir("degraded");
  // Six kills against a budget of one restart (plus one salvage run):
  // the shard is unrecoverable. The run must still terminate, exit
  // "completed degraded" and quarantine the dead shard's cells.
  EXPECT_EQ(run_shepherd(dir,
                         "--shards=3 --chaos-kill=1:6 --heartbeat=0.05 "
                         "--max-shard-restarts=1"),
            exit_code(ToolExit::kDegraded));
  const std::string errors = slurp(dir / "errors.csv");
  EXPECT_NE(errors.find("shard-lost"), std::string::npos) << errors;
  EXPECT_NE(errors.find("restart budget exhausted"), std::string::npos);
  // Surviving shards' rows still merged; no cell simply vanished.
  EXPECT_FALSE(slurp(dir / "results.csv").empty());
  const std::string stats = slurp(dir / "shepherd.stats");
  EXPECT_NE(stats.find("degraded = 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("missing = 0"), std::string::npos) << stats;
}

#else  // _WIN32

TEST(ShepherdTorture, SkippedOnWindows) { GTEST_SKIP(); }

#endif

}  // namespace
}  // namespace pals
