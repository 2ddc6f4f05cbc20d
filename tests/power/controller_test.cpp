// Property battery for the online DVFS controllers (power/controller.hpp,
// core/controllers.hpp) and their replay hooks
// (core/controller_pipeline.hpp):
//
//  * static adapters reproduce the one-shot assigner gear-for-gear,
//  * no controller slows an iteration past the critical path on
//    stationary traces (the paper's time contract, generalized),
//  * zero-transition-cost dynamic re-solvers on a drift-free trace match
//    the static assignment exactly (schedule, time and energy),
//  * switch accounting (stalls, regulator energy) is exact,
//  * unmarked traces degrade to the static whole-run assignment,
//  * gear_stuck faults pin the schedule and the energy books balance,
//  * controller sweeps stay byte-identical across thread counts, and the
//    slack controller strictly dominates static AVG on a drifting
//    workload (the headline Pareto result, pinned as a test),
//  * fresh schedules on the committed drift4 fixture match the golden
//    CSV byte-for-byte, and the jitter-controller / per-phase / fallback /
//    gear_stuck pins match golden/schedule_pins.csv (regenerate both with
//    tools/update_golden).
#include "core/controllers.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/controller_study.hpp"
#include "analysis/pareto.hpp"
#include "analysis/sweep.hpp"
#include "core/controller_pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

#ifndef PALS_SOURCE_DIR
#define PALS_SOURCE_DIR "."
#endif

namespace pals {
namespace {

/// Bulk-synchronous stationary trace: every iteration repeats the same
/// per-rank compute pattern (weights · base) plus a tiny allreduce.
Trace bsp_trace(const std::vector<double>& weights, int iterations = 5,
                double base = 0.1) {
  Trace t(static_cast<Rank>(weights.size()));
  for (Rank r = 0; r < t.n_ranks(); ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < iterations; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(base * weights[static_cast<std::size_t>(r)])
          .collective(CollectiveOp::kAllreduce, 8)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  return t;
}

/// Rotating hotspot: the hot rank advances one position per iteration, so
/// per-iteration imbalance is large while whole-run totals balance out.
Trace drift_trace(Rank ranks = 4, int iterations = 8, double hot = 0.4,
                  double cold = 0.1) {
  Trace t(ranks);
  for (Rank r = 0; r < ranks; ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < iterations; ++i) {
      const bool is_hot = i % static_cast<int>(ranks) == static_cast<int>(r);
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(is_hot ? hot : cold)
          .collective(CollectiveOp::kAllreduce, 8)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  return t;
}

/// Same compute pattern as bsp_trace but without iteration markers — a
/// trace no per-iteration schedule can attach to.
Trace unmarked_trace(const std::vector<double>& weights, int repeats = 5,
                     double base = 0.1) {
  Trace t(static_cast<Rank>(weights.size()));
  for (Rank r = 0; r < t.n_ranks(); ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < repeats; ++i) {
      b.compute(base * weights[static_cast<std::size_t>(r)])
          .collective(CollectiveOp::kAllreduce, 8);
    }
  }
  return t;
}

PipelineConfig controller_config(ControllerKind kind,
                                 Algorithm algorithm = Algorithm::kMax) {
  PipelineConfig c = default_pipeline_config(paper_uniform(6), algorithm);
  c.controller.kind = kind;
  return c;
}

void expect_gears_equal(std::span<const Gear> actual,
                        std::span<const Gear> expected,
                        const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t r = 0; r < actual.size(); ++r) {
    EXPECT_DOUBLE_EQ(actual[r].frequency_ghz, expected[r].frequency_ghz)
        << what << ", rank " << r;
    EXPECT_DOUBLE_EQ(actual[r].voltage_v, expected[r].voltage_v)
        << what << ", rank " << r;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

const std::vector<double> kImbalanced{0.2, 0.5, 0.8, 1.0};
const std::vector<double> kBalanced{1.0, 1.0, 1.0, 1.0};

TEST(ControllerNames, RoundTripThroughParser) {
  for (const std::string& name : controller_names())
    EXPECT_EQ(to_string(controller_by_name(name)), name);
  EXPECT_EQ(controller_names().size(), 6u);
}

TEST(ControllerNames, UnknownNameIsRejectedWithSuggestions) {
  try {
    controller_by_name("warp-speed");
    FAIL() << "unknown controller must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("warp-speed"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dynamic_max"), std::string::npos);
  }
}

TEST(ControllerNames, FactoryNamesMatchTheRegistry) {
  const AlgorithmConfig algorithm =
      default_pipeline_config(paper_uniform(6)).algorithm;
  const PowerModelConfig power = default_pipeline_config(paper_uniform(6)).power;
  for (const std::string& name : controller_names()) {
    ControllerOptions options;
    options.kind = controller_by_name(name);
    EXPECT_EQ(make_controller(options, algorithm, power)->name(), name);
  }
}

TEST(ControllerOptions, ValidationRejectsBadKnobs) {
  ControllerOptions bad;
  bad.transition_latency = -1.0;
  EXPECT_THROW(bad.validate(), Error);
  bad = ControllerOptions{};
  bad.transition_energy = -0.1;
  EXPECT_THROW(bad.validate(), Error);
  bad = ControllerOptions{};
  bad.slack_threshold = 0.0;
  EXPECT_THROW(bad.validate(), Error);
  bad = ControllerOptions{};
  bad.slack_threshold = 1.0;
  EXPECT_THROW(bad.validate(), Error);
  bad = ControllerOptions{};
  bad.hysteresis = 1.0;
  EXPECT_THROW(bad.validate(), Error);
  bad = ControllerOptions{};
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(bad.validate(), Error);
  ControllerOptions good;
  EXPECT_NO_THROW(good.validate());
}

TEST(ControllerPipeline, PerPhaseAndControllerAreMutuallyExclusive) {
  PipelineConfig c = controller_config(ControllerKind::kDynamicMax);
  c.per_phase = true;
  EXPECT_THROW(run_pipeline(bsp_trace(kImbalanced), c), Error);
}

// The static adapter must reproduce the one-shot assigner gear-for-gear,
// for every algorithm, in every iteration of the schedule.
TEST(ControllerPipeline, StaticAdapterReproducesOneShotAssignment) {
  const Trace trace = bsp_trace(kImbalanced);
  for (const Algorithm algorithm :
       {Algorithm::kMax, Algorithm::kAvg, Algorithm::kEnergyOptimalMax}) {
    const PipelineConfig config =
        controller_config(ControllerKind::kStatic, algorithm);
    // kStatic routes run_pipeline through the classic one-shot path.
    const PipelineResult classic = run_pipeline(trace, config);
    const ControllerPipelineResult adapted =
        run_controller_pipeline(trace, config);
    ASSERT_EQ(adapted.controller.iterations, 5u);
    EXPECT_EQ(adapted.controller.switches, 0u);
    for (const std::vector<Gear>& row : adapted.controller.schedule)
      expect_gears_equal(row, classic.assignment.gears, "static adapter");
    EXPECT_NEAR(adapted.pipeline.scaled_time, classic.scaled_time,
                1e-12 * classic.scaled_time);
    EXPECT_NEAR(adapted.pipeline.scaled_energy, classic.scaled_energy,
                1e-9 * classic.scaled_energy);
  }
}

// The paper's time contract, generalized: on a stationary trace no
// controller may stretch the run beyond the baseline critical path (the
// MAX scenario algorithm never over-clocks, so faster is impossible too).
TEST(ControllerPipeline, TimeContractHoldsOnStationaryTraces) {
  for (const auto& weights : {kImbalanced, kBalanced}) {
    const Trace trace = bsp_trace(weights, 6);
    for (const std::string& name : controller_names()) {
      const ControllerPipelineResult result = run_controller_pipeline(
          trace, controller_config(controller_by_name(name)));
      EXPECT_LE(result.pipeline.normalized_time(), 1.0 + 1e-9)
          << name << " stretched a stationary trace";
      EXPECT_DOUBLE_EQ(result.pipeline.overclocked_fraction, 0.0) << name;
    }
  }
}

// With free switching and nothing drifting, the per-iteration MAX
// re-solver must land on the static MAX assignment every iteration —
// same schedule, same makespan, energy equal to round-trip precision.
// The EWMA predictor sees the same (constant) loads and must agree.
TEST(ControllerPipeline, ZeroCostDynamicMatchesStaticOnDriftFreeTrace) {
  const Trace trace = bsp_trace(kImbalanced, 6);
  const ControllerPipelineResult fixed =
      run_controller_pipeline(trace, controller_config(ControllerKind::kStatic));
  for (const ControllerKind kind :
       {ControllerKind::kDynamicMax, ControllerKind::kEwma}) {
    const ControllerPipelineResult dynamic =
        run_controller_pipeline(trace, controller_config(kind));
    EXPECT_EQ(dynamic.controller.switches, 0u) << to_string(kind);
    ASSERT_EQ(dynamic.controller.schedule.size(),
              fixed.controller.schedule.size());
    for (std::size_t i = 0; i < dynamic.controller.schedule.size(); ++i)
      expect_gears_equal(dynamic.controller.schedule[i],
                         fixed.controller.schedule[i],
                         to_string(kind) + " iteration " + std::to_string(i));
    EXPECT_DOUBLE_EQ(dynamic.pipeline.scaled_time, fixed.pipeline.scaled_time)
        << to_string(kind);
    EXPECT_NEAR(dynamic.pipeline.scaled_energy, fixed.pipeline.scaled_energy,
                1e-12 * fixed.pipeline.scaled_energy)
        << to_string(kind);
  }
}

// Transition accounting: identical schedules with and without costs (the
// observations don't change — stalls are outside the compute bursts), and
// the books must balance exactly: stall = switches · latency, regulator
// energy = switches · per-switch energy, both strictly slowing/costing.
TEST(ControllerPipeline, SwitchesAreCountedAndCosted) {
  const Trace trace = drift_trace();
  const PipelineConfig free = controller_config(ControllerKind::kDynamicMax);
  PipelineConfig priced = free;
  priced.controller.transition_latency = 0.01;
  priced.controller.transition_energy = 0.5;

  const ControllerPipelineResult cheap = run_controller_pipeline(trace, free);
  const ControllerPipelineResult costly =
      run_controller_pipeline(trace, priced);

  ASSERT_GT(costly.controller.switches, 0u);
  EXPECT_EQ(costly.controller.switches, cheap.controller.switches);
  ASSERT_EQ(costly.controller.schedule.size(),
            cheap.controller.schedule.size());
  for (std::size_t i = 0; i < costly.controller.schedule.size(); ++i)
    expect_gears_equal(costly.controller.schedule[i],
                       cheap.controller.schedule[i],
                       "iteration " + std::to_string(i));

  const double switches =
      static_cast<double>(costly.controller.switches);
  EXPECT_DOUBLE_EQ(costly.controller.transition_stall_seconds,
                   switches * 0.01);
  EXPECT_DOUBLE_EQ(costly.controller.transition_energy, switches * 0.5);
  EXPECT_GT(costly.pipeline.scaled_time, cheap.pipeline.scaled_time);
  EXPECT_GT(costly.pipeline.scaled_energy,
            cheap.pipeline.scaled_energy + switches * 0.5 - 1e-9);
}

// A trace without iteration markers cannot carry a per-iteration
// schedule: the run must degrade to the whole-run static assignment and
// say so, not throw.
TEST(ControllerPipeline, UnmarkedTraceFallsBackToStatic) {
  const Trace trace = unmarked_trace(kImbalanced);
  ASSERT_EQ(trace.iteration_count(), 0u);
  const PipelineConfig config = controller_config(ControllerKind::kDynamicMax);
  const ControllerPipelineResult result =
      run_controller_pipeline(trace, config);
  EXPECT_TRUE(result.controller.fell_back_static);
  EXPECT_TRUE(result.controller.schedule.empty());
  EXPECT_EQ(result.controller.iterations, 0u);

  PipelineConfig static_config = config;
  static_config.controller.kind = ControllerKind::kStatic;
  const PipelineResult classic = run_pipeline(trace, static_config);
  expect_gears_equal(result.pipeline.assignment.gears, classic.assignment.gears,
                     "fallback assignment");
  EXPECT_DOUBLE_EQ(result.pipeline.scaled_energy, classic.scaled_energy);
  EXPECT_DOUBLE_EQ(result.pipeline.scaled_time, classic.scaled_time);

  // run_pipeline dispatches through the same fallback for unmarked traces.
  const PipelineResult dispatched = run_pipeline(trace, config);
  EXPECT_DOUBLE_EQ(dispatched.scaled_energy, classic.scaled_energy);
}

// A stuck DVFS actuator overrides whatever the controller asks for, in
// every iteration — and the energy accounting must agree with an
// independent recomputation from the pinned schedule.
TEST(ControllerPipeline, GearStuckFaultPinsScheduleAndEnergyAgrees) {
  const fault::Injector injector(fault::FaultPlan::parse(
      "seed=1; gear_stuck:rank=0,gear=min; gear_stuck:rank=2,gear=max"));
  PipelineConfig config = controller_config(ControllerKind::kSlack);
  config.replay.faults = &injector;
  const Trace trace = drift_trace();
  const ControllerPipelineResult result =
      run_controller_pipeline(trace, config);

  const Gear pinned_min = config.algorithm.gear_set.min_gear();
  const Gear pinned_max = config.algorithm.gear_set.max_gear();
  ASSERT_FALSE(result.controller.schedule.empty());
  for (const std::vector<Gear>& row : result.controller.schedule) {
    EXPECT_DOUBLE_EQ(row[0].frequency_ghz, pinned_min.frequency_ghz);
    EXPECT_DOUBLE_EQ(row[0].voltage_v, pinned_min.voltage_v);
    EXPECT_DOUBLE_EQ(row[2].frequency_ghz, pinned_max.frequency_ghz);
    EXPECT_DOUBLE_EQ(row[2].voltage_v, pinned_max.voltage_v);
  }

  // Recompute from the reported schedule alone, gear by gear.
  const PowerModel power(config.power);
  const auto& schedule = result.controller.schedule;
  const auto gear_of = [&](Rank r, const StateInterval& iv) -> const Gear& {
    // Outside every iteration the seed gears (row 0) hold.
    const std::size_t row =
        iv.iteration < 0 ? 0 : static_cast<std::size_t>(iv.iteration);
    return schedule[row][static_cast<std::size_t>(r)];
  };
  const double recomputed =
      power.energy(result.pipeline.scaled_replay.timeline, gear_of) +
      result.controller.transition_energy;
  EXPECT_DOUBLE_EQ(result.pipeline.scaled_energy, recomputed);
}

TEST(GoldenSchedules, Drift4MatchesPinnedCsv) {
  const Trace drift = read_trace_auto(std::string(PALS_SOURCE_DIR) +
                                      "/tests/power/fixtures/drift4.palst");
  const std::string pinned =
      read_file(std::string(PALS_SOURCE_DIR) +
                "/golden/controller_schedules.csv");
  // Byte-for-byte: schedule regressions must show as reviewable diffs.
  // Regenerate intentionally with tools/update_golden.
  EXPECT_EQ(controller_schedules_csv(drift), pinned);
}

// The schedule shapes outside controller_schedules.csv — the jitter
// controller on a longer drift trace, per phase, static fallback and
// gear_stuck — pinned by golden/
// schedule_pins.csv: gears and counts exactly, normalized energy and time
// at 1e-12 relative.
TEST(GoldenSchedules, SchedulePinsMatch) {
  const Trace drift = read_trace_auto(std::string(PALS_SOURCE_DIR) +
                                      "/tests/power/fixtures/drift4.palst");
  const std::vector<std::string> expected = split(
      read_file(std::string(PALS_SOURCE_DIR) + "/golden/schedule_pins.csv"),
      '\n');
  const std::vector<std::string> actual = split(schedule_pins_csv(drift), '\n');
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const std::vector<std::string> want = split(expected[i], ',');
    const std::vector<std::string> got = split(actual[i], ',');
    ASSERT_EQ(got.size(), want.size()) << "line " << i + 1;
    if (want.size() != 3 || want[1].rfind("normalized_", 0) != 0) {
      EXPECT_EQ(actual[i], expected[i]) << "line " << i + 1;
      continue;
    }
    EXPECT_EQ(got[0] + ',' + got[1], want[0] + ',' + want[1]);
    const double pinned = parse_double(want[2]);
    EXPECT_NEAR(parse_double(got[2]), pinned, 1e-12 * pinned)
        << want[0] << ' ' << want[1];
  }
}

TEST(ControllerSweep, GridAxisExpandsInCanonicalOrder) {
  SweepGrid grid;
  grid.workloads = {"cg:8:0.9:2"};
  grid.gear_sets = {"uniform-6"};
  grid.algorithms = {Algorithm::kAvg};
  grid.controllers = {"static", "slack"};
  grid.betas = {0.5};
  const std::vector<Scenario> scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].controller, "static");
  EXPECT_EQ(scenarios[1].controller, "slack");
  // Static keeps the classic label; dynamic variants lead with the policy.
  EXPECT_EQ(scenarios[0].variant_label().find("slack"), std::string::npos);
  EXPECT_EQ(scenarios[1].variant_label().rfind("slack", 0), 0u);
}

TEST(ControllerSweep, UnknownControllerInGridIsRejected) {
  SweepGrid grid;
  grid.workloads = {"cg:8:0.9:2"};
  grid.gear_sets = {"uniform-6"};
  grid.controllers = {"static", "turbo"};
  EXPECT_THROW(grid.validate(), Error);
}

TEST(ControllerSweep, RowsAreByteIdenticalAcrossJobCounts) {
  SweepGrid grid;
  grid.workloads = {"amr-drift:8:0.7:6"};
  grid.gear_sets = {"uniform-6"};
  grid.algorithms = {Algorithm::kAvg};
  grid.controllers = controller_names();
  grid.betas = {0.5};
  grid.iterations = 6;
  const std::vector<Scenario> scenarios = grid.expand();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const SweepResult a = run_sweep(scenarios, serial);
  const SweepResult b = run_sweep(scenarios, parallel);
  ASSERT_EQ(a.rows.size(), scenarios.size());
  EXPECT_EQ(rows_to_csv(a.rows), rows_to_csv(b.rows));
}

// The headline result of the controller study, pinned as a test: on a
// slowly drifting workload (balanced totals, migrating hotspot) the
// slack controller strictly dominates the static AVG assignment — less
// energy at equal-or-better time — so static falls off the Pareto front.
TEST(ControllerSweep, SlackDominatesStaticAvgOnDriftingWorkload) {
  SweepGrid grid;
  grid.workloads = {"amr-drift:16:0.7:48"};
  grid.gear_sets = {"uniform-6"};
  grid.algorithms = {Algorithm::kAvg};
  grid.controllers = {"static", "slack"};
  grid.betas = {0.5};
  const SweepResult result = run_sweep(grid.expand(), SweepOptions{});
  ASSERT_EQ(result.rows.size(), 2u);
  const ExperimentRow& fixed = result.rows[0];
  const ExperimentRow& slack = result.rows[1];
  ASSERT_EQ(slack.variant.rfind("slack", 0), 0u) << slack.variant;

  EXPECT_LE(slack.normalized_time, fixed.normalized_time + 1e-9);
  EXPECT_LT(slack.normalized_energy, fixed.normalized_energy - 0.15);

  const std::vector<ParetoEntry> front = pareto_front(result.rows);
  ASSERT_EQ(front.size(), 2u);
  EXPECT_FALSE(front[0].on_front) << "static AVG must be dominated";
  EXPECT_TRUE(front[1].on_front);
}

}  // namespace
}  // namespace pals
