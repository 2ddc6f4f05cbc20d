// Static bounds analyzer (docs/bounds.md): the intervals must contain
// the real replay for every controller and instance we can afford to
// run, the post-replay oracle must stay silent on a sound stack and trip
// on a corrupted power model, and the renderers must stay parseable.
#include "analysis/bounds.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "core/controllers.hpp"
#include "core/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "workloads/apps.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

PipelineConfig scenario_config(const std::string& controller,
                               Algorithm algorithm = Algorithm::kMax) {
  PipelineConfig config =
      default_pipeline_config(paper_uniform(6), algorithm);
  config.controller.kind = controller_by_name(controller);
  set_beta(config, 0.5);
  return config;
}

TEST(BoundsAnalyzer, ContainsReplayAcrossControllersAndInstances) {
  for (const char* instance : {"CG-32", "IS-32", "MG-32"}) {
    const Trace trace = benchmark_by_name(instance, 4)->make();
    for (const std::string& controller : controller_names()) {
      const PipelineConfig config = scenario_config(controller);
      const PipelineResult result = run_pipeline(trace, config);
      const bounds::ScenarioBounds b =
          bounds::analyze(trace, config, &result.baseline_replay);

      const auto violations =
          bounds::check_soundness(b, result.scaled_time, result.scaled_energy);
      EXPECT_TRUE(violations.empty())
          << instance << " " << controller << ": "
          << (violations.empty() ? "" : violations.front().to_text());
      ASSERT_TRUE(b.normalized);
      EXPECT_TRUE(b.normalized_time.contains(result.normalized_time()))
          << instance << " " << controller;
      EXPECT_TRUE(b.normalized_energy.contains(result.normalized_energy()))
          << instance << " " << controller;
      // The average-power floor is a guarantee, not an estimate.
      EXPECT_GE(result.scaled_energy / result.scaled_time,
                b.min_average_power - 1e-9)
          << instance << " " << controller;
    }
  }
}

/// The pipeline-owned counters (pipeline.runs and ctrl.*), as a snapshot.
std::vector<obs::MetricValue> pipeline_counters() {
  std::vector<obs::MetricValue> kept;
  for (obs::MetricValue& m : obs::default_registry().snapshot().metrics)
    if (m.name.rfind("pipeline.", 0) == 0 || m.name.rfind("ctrl.", 0) == 0)
      kept.push_back(std::move(m));
  return kept;
}

Trace without_markers(const Trace& trace) {
  Trace out(trace.n_ranks());
  for (Rank r = 0; r < trace.n_ranks(); ++r)
    for (const Event& e : trace.events(r))
      if (!std::holds_alternative<MarkerEvent>(e)) out.append(r, e);
  return out;
}

// The oracle and the pipeline plan through the same plan_schedule, so the
// analyzer's schedule facts are the pipeline's: every controller, with and
// without stuck gears, on iteration-marked and unmarked traces. Analyzing
// must not count as a pipeline run.
TEST(BoundsAnalyzer, ScheduleMatchesPipelineControllerRun) {
  WorkloadConfig workload;
  workload.ranks = 8;
  workload.iterations = 6;
  workload.target_lb = 0.5;
  const Trace marked = make_amr_drift(workload);
  const Trace unmarked = without_markers(marked);
  ASSERT_EQ(unmarked.iteration_count(), 0u);
  const fault::Injector stuck_min(
      fault::FaultPlan::parse("seed=1; gear_stuck:rank=0,gear=min"));
  const fault::Injector stuck_max(
      fault::FaultPlan::parse("seed=1; gear_stuck:rank=1,gear=max"));
  for (const std::string& controller : controller_names()) {
    for (const fault::Injector* faults :
         {static_cast<const fault::Injector*>(nullptr), &stuck_min,
          &stuck_max}) {
      for (const Trace* trace : {&marked, &unmarked}) {
        const std::string what =
            controller + (faults == nullptr ? "" : faults == &stuck_min
                                                       ? " stuck-min"
                                                       : " stuck-max") +
            (trace == &marked ? " marked" : " unmarked");
        PipelineConfig config = scenario_config(controller);
        config.controller.transition_latency = 20e-6;
        config.replay.faults = faults;
        const ReplayResult baseline = replay(*trace, config.replay);

        const std::vector<obs::MetricValue> before = pipeline_counters();
        const bounds::ScenarioBounds b =
            bounds::analyze(*trace, config, &baseline);
        EXPECT_EQ(pipeline_counters(), before) << what;

        const PipelineResult pipeline = run_pipeline(*trace, config, baseline);
        const GearSchedule& ran = pipeline.schedule;
        EXPECT_EQ(b.iterations,
                  ran.key == SegmentKey::kIteration ? ran.rows.size() : 0u)
            << what;
        EXPECT_EQ(b.switches, ran.switches) << what;
        if (controller == "static") continue;  // no controller ran
        EXPECT_EQ(ran.fell_back_static, trace == &unmarked) << what;
      }
    }
  }
}

TEST(BoundsAnalyzer, PropertyOverExtSuiteGrid) {
  // Every cell of the shipped extension-suite grid replays inside its
  // static interval: the sweep's soundness oracle (on by default) fails
  // the run on any escape, so a clean sweep IS the property.
  const SweepGrid grid =
      SweepGrid::from_file(PALS_SOURCE_DIR "/configs/ext_suite.grid");
  SweepOptions options;
  options.jobs = 4;
  ASSERT_TRUE(options.bounds_oracle);  // armed by default
  const SweepResult result = run_sweep(grid, options);
  EXPECT_EQ(result.rows.size(), grid.expand().size());
  EXPECT_FALSE(result.has_errors());
}

TEST(BoundsAnalyzer, PreReplaySurfaceNeedsNoBaseline) {
  const Trace trace = benchmark_by_name("IS-32", 4)->make();
  const bounds::ScenarioBounds b =
      bounds::analyze(trace, scenario_config("static"));
  EXPECT_FALSE(b.normalized);
  EXPECT_GT(b.makespan.lo, 0.0);
  EXPECT_GE(b.makespan.hi, b.makespan.lo);
  EXPECT_GT(b.energy.lo, 0.0);
  EXPECT_GE(b.energy.hi, b.energy.lo);
  EXPECT_GT(b.min_average_power, 0.0);
}

TEST(BoundsAnalyzer, RejectsPerPhaseConfigs) {
  const Trace trace = benchmark_by_name("IS-32", 2)->make();
  PipelineConfig config = scenario_config("static");
  config.per_phase = true;  // no single schedule to bound
  EXPECT_THROW(bounds::analyze(trace, config), Error);
}

TEST(BoundsOracle, CorruptedPowerModelTripsEnergyViolation) {
  // The acceptance scenario: bounds derived from the pristine model, a
  // replay running on a corrupted one. The energy escape must surface as
  // kBoundViolationEnergy while the makespan (power-independent) stays
  // inside its interval.
  const Trace trace = benchmark_by_name("IS-32", 4)->make();
  const PipelineConfig pristine = scenario_config("static");
  const bounds::ScenarioBounds b = bounds::analyze(trace, pristine);

  PipelineConfig corrupted = pristine;
  corrupted.power.activity_ratio *= 2.0;
  const PipelineResult result = run_pipeline(trace, corrupted);

  const auto violations =
      bounds::check_soundness(b, result.scaled_time, result.scaled_energy);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].code, lint::Code::kBoundViolationEnergy);
  EXPECT_EQ(violations[0].severity, lint::Severity::kError);
  EXPECT_NE(violations[0].message.find("escaped the static interval"),
            std::string::npos);
}

TEST(BoundsOracle, MakespanEscapeTripsTimeViolation) {
  bounds::ScenarioBounds b;
  b.makespan = {1.0, 2.0};
  b.energy = {10.0, 20.0};
  const auto violations = bounds::check_soundness(b, 3.0, 15.0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].code, lint::Code::kBoundViolationTime);
  EXPECT_TRUE(bounds::check_soundness(b, 1.5, 15.0).empty());
}

TEST(BoundsRendering, JsonIsParseableWithRequiredKeys) {
  const Trace trace = benchmark_by_name("CG-32", 2)->make();
  const PipelineConfig config = scenario_config("dynamic_max");
  const PipelineResult result = run_pipeline(trace, config);
  const bounds::ScenarioBounds b =
      bounds::analyze(trace, config, &result.baseline_replay);

  const JsonValue doc = json_parse(bounds::to_json(b));
  for (const char* key :
       {"makespan", "energy", "normalized", "normalized_time",
        "normalized_energy", "min_average_power", "continuous_energy_floor",
        "monotonicity_floor", "iterations", "switches"})
    EXPECT_NE(doc.find(key), nullptr) << key;
  EXPECT_NE(bounds::to_text(b).find("makespan"), std::string::npos);
}

}  // namespace
}  // namespace pals
