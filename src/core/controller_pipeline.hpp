// A compatibility view of run_pipeline for one outside caller.
//
// run_pipeline (core/pipeline.hpp) is the one pipeline entry point for
// every schedule shape, online controllers included; its
// PipelineResult::schedule is the controller's view of the run (rows,
// switches, stalls, transition energy, fell_back_static). This header
// serves perfbench's composed cell path, which reads the pipeline result
// and the two counts below, until that path composes run_pipeline's
// public seams.
#pragma once

#include <cstddef>

#include "core/pipeline.hpp"

namespace pals {

/// The two controller counts perfbench reads.
struct ControllerRun {
  /// Iterations the controller saw (0 when it did not run per iteration).
  std::size_t iterations = 0;
  /// Gear changes between consecutive iterations, summed over ranks.
  std::size_t switches = 0;
};

struct ControllerPipelineResult {
  PipelineResult pipeline;
  ControllerRun controller;
};

/// run_pipeline(trace, config, baseline) with its schedule's iteration
/// and switch counts copied out.
ControllerPipelineResult run_controller_pipeline(const Trace& trace,
                                                 const PipelineConfig& config,
                                                 const ReplayResult& baseline);

}  // namespace pals
