// update_golden — regenerate the pinned experiment results under golden/.
//
// Run after an *intentional* model or workload change, review the diff,
// and commit; the integration tests (integration/golden_test.cpp) fail
// when fresh runs drift from these files unexpectedly.
//
// Every golden is replaced atomically (save_rows_csv and
// ChromeTraceWriter::write_file go through util/fsio.hpp's
// atomic_write_file), so an interrupted regeneration leaves the old
// goldens intact instead of half-written ones.
//
//   update_golden [--dir=golden]
#include <iostream>

#include "analysis/controller_study.hpp"
#include "analysis/figures.hpp"
#include "analysis/golden.hpp"
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
  cli.add_option("examples", "examples directory (for ring.palst)",
                 "examples");
  cli.add_option("fixtures", "test fixtures directory (for drift4.palst)",
                 "tests/power/fixtures");
  cli.parse(argc, argv);
  const std::string dir = cli.get("dir");

  TraceCache cache;
  save_rows_csv(table3_rows(cache), dir + "/table3.csv");
  std::cout << "wrote " << dir << "/table3.csv\n";
  save_rows_csv(figure9_rows(cache), dir + "/fig9.csv");
  std::cout << "wrote " << dir << "/fig9.csv\n";
  save_rows_csv(figure10_rows(cache), dir + "/fig10.csv");
  std::cout << "wrote " << dir << "/fig10.csv\n";

  // Simulated Chrome-trace timeline of the ring example: all inputs are
  // exact decimals, so the replay (and hence the JSON) is byte-stable.
  const Trace ring =
      read_trace_auto(cli.get("examples") + "/traces/ring.palst");
  const ReplayResult replayed = replay(ring, ReplayConfig{});
  obs::ChromeTraceWriter writer;
  append_simulated_replay(writer, replayed);
  writer.write_file(dir + "/ring_chrome_trace.json");
  std::cout << "wrote " << dir << "/ring_chrome_trace.json\n";

  // Per-iteration gear schedules of every controller on the rotating-
  // hotspot fixture: pure doubles in, round-trip formatting out, so the
  // CSV is byte-stable and schedule changes show as reviewable diffs.
  const Trace drift =
      read_trace_auto(cli.get("fixtures") + "/drift4.palst");
  atomic_write_file(dir + "/controller_schedules.csv",
                    controller_schedules_csv(drift));
  std::cout << "wrote " << dir << "/controller_schedules.csv\n";

  // Jitter, per-phase, static-fallback and gear_stuck schedules with
  // their normalized energy/time (compared at 1e-12 relative).
  atomic_write_file(dir + "/schedule_pins.csv", schedule_pins_csv(drift));
  std::cout << "wrote " << dir << "/schedule_pins.csv\n";
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
