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

/// The baseline replay, with the program every later replay of the trace
/// runs from.
ReplayResult baseline_replay_phase(const Trace& trace,
                                   const PipelineConfig& config,
                                   ReplayProgram& program) {
  PALS_SPAN("pipeline.baseline_replay",
            config.observe ? &obs::default_registry() : nullptr);
  program = ReplayProgram(trace);
  return replay(trace, program, config.replay);
}

/// The one pipeline behind every schedule shape: baseline energy, plan
/// (unless the caller planned), the schedule's factor and power tables,
/// the scaled replay from the shared program, which integrates the scaled
/// energy in its pass and keeps what `output` asks for. The ctrl.*
/// counters live here, not in plan_schedule, so bounds::analyze leaves
/// them alone.
PipelineResult run_schedule(const Trace& trace, const ReplayProgram& program,
                            const PipelineConfig& config,
                            const ReplayResult& baseline, const CellPlan* plan,
                            ReplayOutput output) {
  obs::Registry& registry = obs::default_registry();
  registry.counter("pipeline.runs").add(1);
  obs::Registry* reg = config.observe ? &registry : nullptr;
  const PowerModel power(config.power);

  PipelineResult result;
  result.baseline_time = baseline.makespan;
  {
    PALS_SPAN("pipeline.energy", reg);
    result.baseline_energy = plan != nullptr
                                 ? plan->baseline_energy
                                 : power.baseline_energy(baseline.timeline);
  }
  result.computation_time = baseline.compute_time;
  result.load_balance = load_balance(result.computation_time);
  result.parallel_efficiency =
      parallel_efficiency(result.computation_time, result.baseline_time);

  {
    PALS_SPAN("pipeline.assignment", reg);
    result.schedule = plan != nullptr
                          ? plan->schedule
                          : plan_schedule(trace, config,
                                          result.computation_time);
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

  std::vector<double> factors;
  ReplayScale scale;
  {
    PALS_SPAN("pipeline.rescale", reg);
    scale = schedule.replay_scale(power, trace.n_ranks(), factors);
  }
  {
    PALS_SPAN("pipeline.scaled_replay", reg);
    result.scaled_replay =
        replay(trace, program, config.replay, &scale, output);
  }
  result.scaled_time = result.scaled_replay.makespan;
  result.scaled_energy =
      result.scaled_replay.energy + schedule.transition_energy;
  return result;
}

}  // namespace

CellPlan plan_cell(const Trace& trace, const PipelineConfig& config,
                   const ReplayResult& baseline) {
  CellPlan plan;
  plan.baseline_energy =
      PowerModel(config.power).baseline_energy(baseline.timeline);
  plan.schedule = plan_schedule(trace, config, baseline.compute_time);
  return plan;
}

PipelineResult run_pipeline(const Trace& trace, const PipelineConfig& config) {
  config.validate();
  if (config.lint) lint_input_trace(trace, config);
  ReplayProgram program;
  ReplayResult baseline = baseline_replay_phase(trace, config, program);
  PipelineResult result = run_schedule(trace, program, config, baseline,
                                       nullptr, ReplayOutput::kFull);
  result.baseline_replay = std::move(baseline);
  return result;
}

PipelineResult run_pipeline(const Trace& trace, const PipelineConfig& config,
                            const ReplayResult& baseline) {
  config.validate();
  if (config.lint) lint_input_trace(trace, config);
  const ReplayProgram program(trace);
  return run_schedule(trace, program, config, baseline, nullptr,
                      ReplayOutput::kFull);
}

PipelineResult run_pipeline(const Trace& trace, const ReplayProgram& program,
                            const PipelineConfig& config,
                            const ReplayResult& baseline,
                            const CellPlan* plan) {
  config.validate();
  if (config.lint) lint_input_trace(trace, config);
  return run_schedule(trace, program, config, baseline, plan,
                      ReplayOutput::kSummary);
}

ControllerPipelineResult run_controller_pipeline(
    const Trace& trace, const PipelineConfig& config,
    const ReplayResult& baseline) {
  ControllerPipelineResult result;
  result.pipeline = run_pipeline(trace, config, baseline);
  const GearSchedule& schedule = result.pipeline.schedule;
  if (schedule.key == SegmentKey::kIteration) {
    result.controller.iterations = schedule.rows.size();
    result.controller.switches = schedule.switches;
  }
  return result;
}

}  // namespace pals
