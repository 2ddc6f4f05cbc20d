// Seeded DVFS schedules for the differential replay suites
// (replay_scale_test.cpp, summary_replay_test.cpp): one per shape the
// pipeline runs, drawn over the paper's six uniform gears.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gear_schedule.hpp"
#include "power/gearset.hpp"
#include "power/power_model.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace pals {

/// The paper's power model (default configuration).
inline const PowerModel& model() {
  static const PowerModel power{PowerModelConfig{}};
  return power;
}

inline std::vector<Gear> random_gears(Rng& rng, Rank n) {
  const GearSet gears = paper_uniform(6);
  std::vector<Gear> out;
  for (Rank r = 0; r < n; ++r)
    out.push_back(gears.gears()[static_cast<std::size_t>(
        rng.uniform_int(0, gears.size() - 1))]);
  return out;
}

/// Whole-run, per-phase and per-iteration (with stalls and transition
/// energy) schedules of `trace`.
inline std::vector<GearSchedule> schedules_for(const Trace& trace,
                                               std::uint64_t seed) {
  Rng rng(seed);
  const Rank n = trace.n_ranks();
  std::vector<GearSchedule> out;

  GearSchedule run;
  run.fallback.gears = random_gears(rng, n);
  out.push_back(run);

  GearSchedule phase;
  phase.key = SegmentKey::kPhase;
  phase.phases = trace.phases();
  for (std::size_t s = 0; s < phase.phases.size(); ++s)
    phase.rows.push_back(random_gears(rng, n));
  phase.fallback.gears = random_gears(rng, n);
  out.push_back(phase);

  GearSchedule controller;
  controller.key = SegmentKey::kIteration;
  for (std::size_t i = 0; i < trace.iteration_count(); ++i) {
    controller.rows.push_back(random_gears(rng, n));
    std::vector<Seconds>& stalls = controller.stalls.emplace_back();
    for (Rank r = 0; r < n; ++r)
      stalls.push_back(rng.uniform_int(0, 2) == 0 ? 0.0
                                                  : rng.uniform(0.0, 5e-4));
  }
  controller.fallback.gears = controller.rows.front();
  controller.transition_energy = rng.uniform(0.0, 1e-3);
  out.push_back(controller);
  return out;
}

}  // namespace pals
