// Golden pins of the replay simulator's outputs.
//
// replay_pins_csv replays a fixed list of seeded random traces and renders
// what the replay produced: makespan, per-rank state totals, a hash of the
// message match order and the DES counters. tools/update_golden writes it
// to golden/replay_pins.csv and tests/sim/replay_pins_test.cpp requires a
// fresh rendering to match it byte for byte, so any change to event order,
// matching or timing inside the replay shows as a reviewable diff.
#pragma once

#include <string>

namespace pals {

/// `case,key,value` CSV, doubles in round-trip format. The traces cover
/// blocking and non-blocking point-to-point on both sides of the eager
/// threshold; sparse, negative and reused request ids; Wait and Waitall
/// over mixed completions; many tags per rank pair; every collective;
/// bus and link contention; fault jitter, link degradation and node
/// slowdown; heterogeneous CPU speeds.
std::string replay_pins_csv();

}  // namespace pals
