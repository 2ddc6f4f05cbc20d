// Golden-schedule rendering for the controller regression tests.
//
// Every built-in controller (core/controllers.hpp) is run over one
// iteration-marked trace under the paper-default pipeline configuration,
// and the per-iteration gear schedules are rendered with
// schedules_to_csv. tools/update_golden pins the result for the committed
// rotating-hotspot fixture (tests/power/fixtures/drift4.palst) as
// golden/controller_schedules.csv; tests/power/controller_test.cpp
// requires a fresh rendering to match it byte-for-byte, so any change to
// a controller's decisions shows up as a reviewable schedule diff.
//
// schedule_pins_csv pins the schedule shapes the controller CSV does not
// reach (golden/schedule_pins.csv, same regeneration path).
#pragma once

#include <string>

#include "trace/trace.hpp"

namespace pals {

/// CSV of every built-in controller's per-iteration gear schedule on
/// `trace` (uniform-6 gear set, MAX scenario algorithm, paper defaults).
std::string controller_schedules_csv(const Trace& trace);

/// `case,key,value` CSV of the gears, switch counts and normalized
/// energy/time of:
///  * the jitter controller on the examples/dynamic_runtime drift trace,
///    with free and with 50 us gear switches;
///  * the per-phase PEPC-128 ablation cell (bench_ablation);
///  * the slack controller on BT-MZ-32 with its iteration markers removed
///    (the static fallback);
///  * the slack controller on `drift` with one rank's gear stuck at the
///    minimum and one at the maximum, with priced switches.
/// Gears print at round-trip precision and must match exactly; energy and
/// time print with 13 significant digits and are compared at 1e-12
/// relative, so a change in summation order does not churn the file.
std::string schedule_pins_csv(const Trace& drift);

}  // namespace pals
