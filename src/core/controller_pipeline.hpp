// The controller's view of a pipeline run.
//
// run_pipeline (core/pipeline.hpp) plans every schedule shape through
// plan_schedule (core/gear_schedule.hpp). With an online controller the
// plan seeds the controller with the whole-run profile, then after every
// simulated iteration lets it observe the per-rank compute times under the
// gears that actually ran and pick the gears for the next iteration. Gear
// changes take effect at iteration boundaries and optionally charge a DVFS
// transition latency (a wall-clock stall inserted after the
// iteration-begin marker) and a per-switch regulator energy.
//
// Unmarked traces cannot carry a per-iteration schedule; instead of
// throwing, the run degrades to the whole-run static assignment and
// reports fell_back_static. run_controller_pipeline returns the pipeline
// result together with that schedule, read back from the GearSchedule.
#pragma once

#include <vector>

#include "core/controllers.hpp"
#include "core/pipeline.hpp"

namespace pals {

/// What the controller actually did during the simulated run.
struct ControllerRun {
  /// Per-iteration, per-rank gears (schedule[i][rank]); one row per
  /// iteration of the trace. Empty when the run fell back to static.
  std::vector<std::vector<Gear>> schedule;
  /// Iterations the controller saw (== schedule.size(), 0 on fallback).
  std::size_t iterations = 0;
  /// Gear changes between consecutive iterations, summed over ranks.
  std::size_t switches = 0;
  /// The trace carried no iteration markers: the run used the whole-run
  /// static assignment instead of the controller.
  bool fell_back_static = false;
  /// Total wall-clock stall injected for gear transitions (seconds,
  /// before DVFS scaling of the surrounding bursts).
  Seconds transition_stall_seconds = 0.0;
  /// Total regulator energy charged for gear switches (energy-units,
  /// already included in the pipeline's scaled_energy).
  double transition_energy = 0.0;
};

struct ControllerPipelineResult {
  PipelineResult pipeline;
  ControllerRun controller;
};

/// Run the controller-driven pipeline. `config.controller.kind` selects
/// the policy; kStatic is valid here (the adapter reproduces the one-shot
/// assignment through the controller machinery, useful for A/B tests).
ControllerPipelineResult run_controller_pipeline(const Trace& trace,
                                                 const PipelineConfig& config);

/// Same, reusing a precomputed baseline replay (sweep engine fast path).
ControllerPipelineResult run_controller_pipeline(const Trace& trace,
                                                 const PipelineConfig& config,
                                                 const ReplayResult& baseline);

}  // namespace pals
