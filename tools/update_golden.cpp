// update_golden — regenerate the pinned results under golden/.
//
// Run after an *intentional* model or workload change, review the diff,
// and commit; the tests that read golden/ fail when fresh runs drift from
// these files unexpectedly. The paper's figures are pinned byte for byte
// under results/ instead (pals_reproduce; tests/smoke_results.cmake).
//
// Every golden is replaced atomically (util/fsio.hpp's atomic_write_file),
// so an interrupted regeneration leaves the old goldens intact instead of
// half-written ones. Its inputs (examples/traces/ring.palst,
// tests/power/fixtures/drift4.palst, configs/) are read from --source.
//
//   update_golden [--dir=golden] [--source=.]
#include <filesystem>
#include <iostream>
#include <unistd.h>

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

  // The R records of journaled --jobs=1 sweeps over the shipped grids
  // (compared byte for byte). The journals go to a private temporary
  // directory, removed afterwards.
  const std::filesystem::path work =
      std::filesystem::temp_directory_path() /
      ("pals_journal_pins." + std::to_string(::getpid()));
  const std::string pins = journal_pins_text(source, work.string());
  std::filesystem::remove_all(work);
  atomic_write_file(dir + "/journal_pins.txt", pins);
  std::cout << "wrote " << dir << "/journal_pins.txt\n";
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
