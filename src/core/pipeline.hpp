// End-to-end power-analysis pipeline (paper §4).
//
// Mirrors the paper's simulation methodology, for every schedule shape
// (whole run, per phase, per iteration under an online controller):
//   1. replay the original trace to obtain the baseline execution time and
//      per-rank computation times,
//   2. plan the gears (plan_schedule, core/gear_schedule.hpp): one
//      frequency per rank (MAX or AVG over a gear set), per phase, or per
//      iteration,
//   3. scale every compute burst with the β time model,
//   4. replay the trace under those factors for the new execution time
//      (the structure is compiled once, ReplayProgram; the factors apply
//      inside the replay, so the trace is never copied),
//   5. integrate CPU energy over the baseline timeline and, inside the
//      scaled replay's pass, over the scaled run, and report normalized
//      energy, time and EDP.
#pragma once

#include <vector>

#include "core/algorithms.hpp"
#include "core/controllers.hpp"
#include "core/gear_schedule.hpp"
#include "power/power_model.hpp"
#include "replay/replay.hpp"
#include "trace/trace.hpp"

namespace pals {

struct PipelineConfig {
  AlgorithmConfig algorithm;
  PowerModelConfig power;
  ReplayConfig replay;
  /// Online DVFS controller (core/controllers.hpp). kStatic keeps the
  /// classic one-shot assignment; any dynamic kind re-assigns gears at
  /// iteration boundaries and charges the configured transition costs
  /// (core/controller_pipeline.hpp has the controller's view of the run).
  ControllerOptions controller;
  /// Ablation: compute a separate frequency per computation phase instead
  /// of one per rank (the paper uses a single setting; PEPC's 20 % slowdown
  /// stems from that restriction).
  bool per_phase = false;
  /// Opt-in fail-fast verification: statically lint the input trace
  /// (lint/lint.hpp, with this config's eager threshold) before the
  /// baseline replay and throw the full diagnostic report on any error —
  /// a malformed or deadlocking trace aborts up front instead of
  /// mid-replay.
  bool lint = false;
  /// Record per-phase wall-clock spans (pipeline.baseline_replay,
  /// .energy — the baseline's, when the cell was not planned —,
  /// .assignment, .rescale — the schedule's factor and power tables —,
  /// .scaled_replay, which integrates the scaled energy in its pass) into
  /// obs::default_registry() — the host-profiling view consumed by
  /// pals_profile and the Chrome-trace export. Simulation metrics are
  /// always recorded; this flag only controls the wall-clock spans.
  bool observe = false;

  void validate() const;
};

struct PipelineResult {
  /// Baseline (all ranks at the reference frequency).
  Seconds baseline_time = 0.0;
  double baseline_energy = 0.0;
  double load_balance = 0.0;        ///< Σ comp / (N · max comp), eq. (4)
  double parallel_efficiency = 0.0; ///< Σ comp / (N · total time), eq. (5)

  /// DVFS execution.
  Seconds scaled_time = 0.0;
  double scaled_energy = 0.0;
  /// The whole-run assignment (schedule.fallback): the only gears of a
  /// static run, the seed gears of a controller run.
  FrequencyAssignment assignment;
  /// The gears the scaled run used, per rank and segment.
  GearSchedule schedule;
  double overclocked_fraction = 0.0;

  /// Per-rank computation times of the baseline run (input to the
  /// algorithms; useful for reporting).
  std::vector<Seconds> computation_time;

  double normalized_energy() const { return scaled_energy / baseline_energy; }
  double normalized_time() const { return scaled_time / baseline_time; }
  double normalized_edp() const {
    return normalized_energy() * normalized_time();
  }

  /// Replay outputs, kept for visualization (Figure 1) and deeper
  /// analysis. baseline_replay is filled only by the forms that replay
  /// the baseline themselves; a caller that passes its baseline in keeps
  /// it and gets an empty one here. scaled_replay is a full replay,
  /// except in the prepared form (program + baseline), which runs a
  /// summary replay: makespan, per-rank times, energy and counts, but no
  /// timeline, message log or collective records.
  ReplayResult baseline_replay;
  ReplayResult scaled_replay;
};

/// What a cell computes from its baseline before the scaled replay: the
/// gear schedule and the baseline's CPU energy. run_sweep plans each cell
/// once and hands the plan to both the bounds oracle and the pipeline.
struct CellPlan {
  GearSchedule schedule;
  double baseline_energy = 0.0;
};

/// plan_schedule(trace, config, baseline.compute_time) and the CPU energy
/// of `baseline` under config.power: exactly what the pipeline computes.
CellPlan plan_cell(const Trace& trace, const PipelineConfig& config,
                   const ReplayResult& baseline);

PipelineResult run_pipeline(const Trace& trace, const PipelineConfig& config);

/// Same pipeline, but reuse a precomputed baseline replay instead of
/// re-simulating it. `baseline` must be the result of
/// replay(trace, config.replay). It is not copied into the result.
PipelineResult run_pipeline(const Trace& trace, const PipelineConfig& config,
                            const ReplayResult& baseline);

/// The pipeline on a workload prepared once: `program` compiled from
/// `trace` and `baseline` = replay(trace, program, config.replay), shared
/// by every cell of the workload (the sweep engine, analysis/sweep.hpp,
/// and the serve cache) and not copied into the result. `plan`, when
/// given, must be plan_cell(trace, config, baseline); otherwise the
/// pipeline plans the cell itself. The scaled replay is a summary one
/// (ReplayOutput::kSummary): a cell's row reads only its time and
/// energy.
PipelineResult run_pipeline(const Trace& trace, const ReplayProgram& program,
                            const PipelineConfig& config,
                            const ReplayResult& baseline,
                            const CellPlan* plan = nullptr);

/// Equations (4) and (5) of the paper.
double load_balance(std::span<const Seconds> computation_time);
double parallel_efficiency(std::span<const Seconds> computation_time,
                           Seconds total_time);

}  // namespace pals
