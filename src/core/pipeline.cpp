#include "core/pipeline.hpp"

#include <algorithm>
#include <numeric>

#include "core/controller_pipeline.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace pals {

void PipelineConfig::validate() const {
  algorithm.validate();
  power.validate();
  replay.validate();
  controller.validate();
  PALS_CHECK_MSG(!per_phase || controller.kind == ControllerKind::kStatic,
                 "per-phase assignment and online controllers are mutually "
                 "exclusive");
  PALS_CHECK_MSG(algorithm.beta == power.beta,
                 "algorithm beta (" << algorithm.beta
                                    << ") and power-model beta ("
                                    << power.beta
                                    << ") must agree");
  PALS_CHECK_MSG(
      algorithm.nominal_fmax_ghz == power.reference.frequency_ghz,
      "algorithm nominal fmax and power-model reference frequency must agree");
}

double load_balance(std::span<const Seconds> computation_time) {
  PALS_CHECK_MSG(!computation_time.empty(), "no ranks");
  const Seconds total =
      std::accumulate(computation_time.begin(), computation_time.end(), 0.0);
  const Seconds t_max =
      *std::max_element(computation_time.begin(), computation_time.end());
  PALS_CHECK_MSG(t_max > 0.0, "all ranks have zero computation");
  return total / (static_cast<double>(computation_time.size()) * t_max);
}

double parallel_efficiency(std::span<const Seconds> computation_time,
                           Seconds total_time) {
  PALS_CHECK_MSG(!computation_time.empty(), "no ranks");
  PALS_CHECK_MSG(total_time > 0.0, "total time must be positive");
  const Seconds total =
      std::accumulate(computation_time.begin(), computation_time.end(), 0.0);
  return total / (static_cast<double>(computation_time.size()) * total_time);
}

namespace {

/// The opt-in PipelineConfig::lint hook: verify the trace statically and
/// abort with the exhaustive report instead of a mid-replay throw.
void lint_input_trace(const Trace& trace, const PipelineConfig& config) {
  lint::LintOptions options;
  options.eager_threshold = config.replay.platform.eager_threshold;
  lint::enforce_lint(trace, options,
                     trace.name().empty() ? "pipeline input trace"
                                          : trace.name());
}

ReplayResult baseline_replay_phase(const Trace& trace,
                                   const PipelineConfig& config) {
  PALS_SPAN("pipeline.baseline_replay",
            config.observe ? &obs::default_registry() : nullptr);
  return replay(trace, config.replay);
}

/// The one pipeline behind every schedule shape: baseline, plan, one
/// rescale, scaled replay, one energy integration. The ctrl.* counters
/// live here, not in plan_schedule, so bounds::analyze leaves them alone.
PipelineResult run_schedule(const Trace& trace, const PipelineConfig& config,
                            const ReplayResult& baseline,
                            bool force_controller) {
  obs::Registry& registry = obs::default_registry();
  registry.counter("pipeline.runs").add(1);
  obs::Registry* reg = config.observe ? &registry : nullptr;
  const PowerModel power(config.power);

  PipelineResult result;
  result.baseline_replay = baseline;
  result.baseline_time = result.baseline_replay.makespan;
  {
    PALS_SPAN("pipeline.energy", reg);
    result.baseline_energy =
        power.baseline_energy(result.baseline_replay.timeline);
  }
  result.computation_time = result.baseline_replay.compute_time;
  result.load_balance = load_balance(result.computation_time);
  result.parallel_efficiency =
      parallel_efficiency(result.computation_time, result.baseline_time);

  {
    PALS_SPAN("pipeline.assignment", reg);
    result.schedule = plan_schedule(trace, config, result.computation_time,
                                    force_controller);
  }
  const GearSchedule& schedule = result.schedule;
  if (schedule.fell_back_static)
    registry.counter("ctrl.fallback_static").add(1);
  if (schedule.key == SegmentKey::kIteration) {
    registry.counter("ctrl.iterations")
        .add(static_cast<std::uint64_t>(schedule.rows.size()));
    registry.counter("ctrl.switches")
        .add(static_cast<std::uint64_t>(schedule.switches));
  }
  result.assignment = schedule.fallback;
  result.overclocked_fraction =
      schedule.overclocked_fraction(config.algorithm.nominal_fmax_ghz);

  Trace scaled;
  {
    PALS_SPAN("pipeline.rescale", reg);
    scaled = schedule.rescale(trace, power);
  }
  {
    PALS_SPAN("pipeline.scaled_replay", reg);
    result.scaled_replay = replay(scaled, config.replay);
  }
  result.scaled_time = result.scaled_replay.makespan;
  {
    PALS_SPAN("pipeline.energy", reg);
    result.scaled_energy =
        schedule.energy(power, result.scaled_replay.timeline);
  }
  return result;
}

}  // namespace

PipelineResult run_pipeline(const Trace& trace, const PipelineConfig& config) {
  config.validate();
  if (config.lint) {
    lint_input_trace(trace, config);
    PipelineConfig linted = config;
    linted.lint = false;  // already verified; skip the re-check below
    return run_pipeline(trace, linted, baseline_replay_phase(trace, linted));
  }
  return run_pipeline(trace, config, baseline_replay_phase(trace, config));
}

PipelineResult run_pipeline(const Trace& trace, const PipelineConfig& config,
                            const ReplayResult& baseline) {
  config.validate();
  if (config.lint) lint_input_trace(trace, config);
  return run_schedule(trace, config, baseline, /*force_controller=*/false);
}

ControllerPipelineResult run_controller_pipeline(
    const Trace& trace, const PipelineConfig& config) {
  config.validate();
  return run_controller_pipeline(trace, config, replay(trace, config.replay));
}

ControllerPipelineResult run_controller_pipeline(
    const Trace& trace, const PipelineConfig& config,
    const ReplayResult& baseline) {
  config.validate();
  PALS_CHECK_MSG(!config.per_phase,
                 "per-phase assignment and online controllers are mutually "
                 "exclusive");
  ControllerPipelineResult result;
  result.pipeline =
      run_schedule(trace, config, baseline, /*force_controller=*/true);
  const GearSchedule& schedule = result.pipeline.schedule;
  ControllerRun& run = result.controller;
  run.fell_back_static = schedule.fell_back_static;
  if (schedule.key == SegmentKey::kIteration) {
    run.schedule = schedule.rows;
    run.iterations = schedule.rows.size();
    run.switches = schedule.switches;
    for (const std::vector<Seconds>& row : schedule.stalls)
      for (const Seconds stall : row) run.transition_stall_seconds += stall;
    run.transition_energy = schedule.transition_energy;
  }
  return result;
}

}  // namespace pals
