// Golden pins of the replay simulator's outputs.
//
// replay_pins_csv replays a fixed list of seeded random traces and renders
// what the replay produced: makespan, per-rank state totals, a hash of the
// message match order and the DES counters. tools/update_golden writes it
// to golden/replay_pins.csv and tests/sim/replay_pins_test.cpp requires a
// fresh rendering to match it byte for byte, so any change to event order,
// matching or timing inside the replay shows as a reviewable diff.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "replay/replay.hpp"
#include "trace/trace.hpp"

namespace pals {

/// One seeded case of replay_pins_csv: its random trace and the replay
/// configuration it is pinned under. config.faults points into `faults`
/// (null when the case injects none), so a case may be moved freely.
struct ReplayPinCase {
  std::string name;
  std::uint64_t seed = 0;
  Trace trace;
  ReplayConfig config;
  std::unique_ptr<fault::Injector> faults;
};

/// The pinned cases, in CSV order. Differential tests replay the same
/// traces under other configurations and schedules.
std::vector<ReplayPinCase> replay_pin_cases();

/// `case,key,value` CSV, doubles in round-trip format. The traces cover
/// blocking and non-blocking point-to-point on both sides of the eager
/// threshold; sparse, negative and reused request ids; Wait and Waitall
/// over mixed completions; many tags per rank pair; every collective;
/// bus and link contention; fault jitter, link degradation and node
/// slowdown; heterogeneous CPU speeds; iterations that end in
/// point-to-point exchanges, ranks that finish long before the makespan
/// and compute between iterations.
std::string replay_pins_csv();

}  // namespace pals
