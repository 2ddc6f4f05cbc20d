// Trace transformations applied by the power-analysis pipeline.
//
// The central operation mirrors the paper's tooling: rewrite every compute
// burst's duration by a per-rank scale factor (derived from the chosen
// frequency and the beta time model) and leave communication untouched.
// Per-phase and per-iteration schedules, with their transition stalls, are
// applied by GearSchedule::rescale (core/gear_schedule.hpp).
#pragma once

#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace pals {

/// Multiply each compute burst of rank r by `factor[r]`. Factors must be
/// positive and `factor.size()` must equal the rank count.
Trace scale_compute(const Trace& trace, std::span<const double> factor);

/// Uniform scale on every rank (used for whole-application slowdown
/// baselines).
Trace scale_compute_uniform(const Trace& trace, double factor);

/// Per-rank computation time of each iteration: result[i][r]. Requires
/// iteration markers; bursts outside iterations are ignored.
std::vector<std::vector<Seconds>> iteration_computation_times(
    const Trace& trace);

}  // namespace pals
