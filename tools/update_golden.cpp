// update_golden — regenerate the pinned results under golden/.
//
// Run after an *intentional* model or workload change, review the diff,
// and commit; the tests that read golden/ fail when fresh runs drift from
// these files unexpectedly. The paper's figures are pinned byte for byte
// under results/ instead (pals_reproduce; tests/smoke_results.cmake).
//
// Every golden is replaced atomically (util/fsio.hpp's atomic_write_file),
// so an interrupted regeneration leaves the old goldens intact instead of
// half-written ones. Its inputs (examples/traces/,
// tests/power/fixtures/drift4.palst, configs/) are read from --source;
// lint_bounds.jsonl is written by tests/golden_lint_bounds.cmake from the
// pals_lint binary next to this one.
//
//   update_golden [--dir=golden] [--source=.]
#include <filesystem>
#include <iostream>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "analysis/controller_study.hpp"
#include "analysis/journal_pins.hpp"
#include "analysis/replay_pins.hpp"
#include "obs/chrome_trace.hpp"
#include "replay/replay.hpp"
#include "trace/io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace pals {
namespace {

/// Run `args` as a child process, without a shell; throws unless it
/// exits with status 0.
void run_process(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  int status = -1;
  PALS_CHECK_MSG(::posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(),
                               environ) == 0 &&
                     ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                     WEXITSTATUS(status) == 0,
                 "failed: " << args.front() << " ... " << args.back());
}

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_option("dir", "output directory", "golden");
  cli.add_option("source", "source tree (examples/, tests/, configs/)",
                 ".");
  cli.parse(argc, argv);
  const std::string dir = cli.get("dir");
  const std::string source = cli.get("source");

  // Simulated Chrome-trace timeline of the ring example: all inputs are
  // exact decimals, so the replay (and hence the JSON) is byte-stable.
  const Trace ring =
      read_trace_auto(source + "/examples/traces/ring.palst");
  const ReplayResult replayed = replay(ring, ReplayConfig{});
  obs::ChromeTraceWriter writer;
  append_simulated_replay(writer, replayed);
  writer.write_file(dir + "/ring_chrome_trace.json");
  std::cout << "wrote " << dir << "/ring_chrome_trace.json\n";

  // Per-iteration gear schedules of every controller on the rotating-
  // hotspot fixture: pure doubles in, round-trip formatting out, so the
  // CSV is byte-stable and schedule changes show as reviewable diffs.
  const Trace drift =
      read_trace_auto(source + "/tests/power/fixtures/drift4.palst");
  atomic_write_file(dir + "/controller_schedules.csv",
                    controller_schedules_csv(drift));
  std::cout << "wrote " << dir << "/controller_schedules.csv\n";

  // Jitter-controller, per-phase, static-fallback and gear_stuck schedules
  // with their normalized energy/time (compared at 1e-12 relative).
  atomic_write_file(dir + "/schedule_pins.csv", schedule_pins_csv(drift));
  std::cout << "wrote " << dir << "/schedule_pins.csv\n";

  // Makespan, per-rank state totals, match order and DES counters of
  // seeded random traces (compared byte for byte).
  atomic_write_file(dir + "/replay_pins.csv", replay_pins_csv());
  std::cout << "wrote " << dir << "/replay_pins.csv\n";

  // The R, E and P records of journaled --jobs=1 sweeps over the shipped
  // grids (compared byte for byte). The journals go to a private temporary
  // directory, removed afterwards.
  const std::filesystem::path work =
      std::filesystem::temp_directory_path() /
      ("pals_journal_pins." + std::to_string(::getpid()));
  const std::string pins = journal_pins_text(source, work.string());
  std::filesystem::remove_all(work);
  atomic_write_file(dir + "/journal_pins.txt", pins);
  std::cout << "wrote " << dir << "/journal_pins.txt\n";

  // pals_lint --bounds --json of the example traces under every
  // controller, written by the script that compares it in ctest.
  namespace fs = std::filesystem;
  const fs::path lint =
      fs::read_symlink("/proc/self/exe").parent_path() / "pals_lint";
  run_process({PALS_CMAKE_COMMAND, "-DPALS_LINT=" + lint.string(),
               "-DSOURCE_DIR=" + fs::absolute(source).string(),
               "-DOUTPUT=" + fs::absolute(dir + "/lint_bounds.jsonl").string(),
               "-P", source + "/tests/golden_lint_bounds.cmake"});
  std::cout << "wrote " << dir << "/lint_bounds.jsonl\n";
  return 0;
}

}  // namespace
}  // namespace pals

int main(int argc, char** argv) {
  try {
    return pals::run(argc, argv);
  } catch (const pals::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
