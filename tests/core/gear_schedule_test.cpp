// GearSchedule: the one rescale and the one energy integrator behind every
// schedule shape (whole run, per phase, per iteration). The suite names
// follow the per-phase / per-iteration transforms and integrators these
// cases first covered; the behaviours are the same — missing-row and
// rank-count rejection, stall placement after the iteration-begin marker,
// the fallback outside keyed segments and the idle-tail charge.
#include "core/gear_schedule.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "trace/transform.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

const PowerModel& model() {
  static const PowerModel pm{PowerModelConfig{}};
  return pm;
}

double scale(const Gear& g) { return model().time_scale(g.frequency_ghz); }

const Gear kRef{2.3, 1.5};
const Gear kFast{2.0, 1.4};
const Gear kMid{1.4, 1.2};
const Gear kSlow{0.8, 1.0};

/// Rank 0: unphased 1.0, send, phase-1 2.0. Rank 1: recv, phase-0 4.0.
Trace base_trace() {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0).send(1, 0, 10).compute(2.0, 1);
  TraceBuilder(t, 1).recv(0, 0, 10).compute(4.0, 0);
  return t;
}

/// A 0.5 s prologue outside any iteration, then `iterations` iterations
/// of (rank + 1)·(i + 1) seconds of compute and a barrier.
Trace marked_trace(int iterations) {
  Trace t(2);
  for (Rank r = 0; r < 2; ++r) {
    TraceBuilder b(t, r);
    b.compute(0.5);
    for (int i = 0; i < iterations; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute((r + 1.0) * (i + 1.0))
          .collective(CollectiveOp::kBarrier, 0)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  return t;
}

GearSchedule phase_schedule(std::vector<std::int32_t> phases,
                            std::vector<std::vector<Gear>> rows,
                            std::vector<Gear> fallback) {
  GearSchedule s;
  s.key = SegmentKey::kPhase;
  s.phases = std::move(phases);
  s.rows = std::move(rows);
  s.fallback.gears = std::move(fallback);
  return s;
}

GearSchedule iteration_schedule(std::vector<std::vector<Gear>> rows,
                                std::vector<Gear> fallback,
                                std::vector<std::vector<Seconds>> stalls = {}) {
  GearSchedule s;
  s.key = SegmentKey::kIteration;
  s.rows = std::move(rows);
  s.fallback.gears = std::move(fallback);
  s.stalls = std::move(stalls);
  return s;
}

TEST(ScaleComputePerPhase, UsesPhaseFactors) {
  // Rank 0: the unphased burst follows the fallback, the phase-1 burst
  // row 1. Rank 1: the phase-0 burst follows row 0.
  const GearSchedule s = phase_schedule({0, 1}, {{kRef, kSlow}, {kMid, kRef}},
                                        {kFast, kRef});
  const Trace scaled = s.rescale(base_trace(), model());
  EXPECT_DOUBLE_EQ(scaled.computation_time(0),
                   1.0 * scale(kFast) + 2.0 * scale(kMid));
  EXPECT_DOUBLE_EQ(scaled.computation_time(1), 4.0 * scale(kSlow));
}

TEST(ScaleComputePerPhase, RejectsMissingPhaseFactor) {
  const GearSchedule s = phase_schedule({0}, {{kRef, kRef}}, {kRef, kRef});
  EXPECT_THROW(s.rescale(base_trace(), model()), Error);  // no phase 1
}

TEST(ScaleComputePerPhase, RejectsRankCountMismatch) {
  EXPECT_THROW(phase_schedule({0, 1}, {{kRef}, {kRef}}, {kRef, kRef})
                   .rescale(base_trace(), model()),
               Error);
  EXPECT_THROW(phase_schedule({0, 1}, {{kRef, kRef}, {kRef, kRef}}, {kRef})
                   .rescale(base_trace(), model()),
               Error);
}

TEST(ScaleComputePerIteration, ScalesOnlyInsideIterations) {
  // The reference-gear fallback leaves the prologue's duration exact.
  const Trace t = marked_trace(2);
  const GearSchedule s =
      iteration_schedule({{kMid, kMid}, {kSlow, kSlow}}, {kRef, kRef});
  const Trace scaled = s.rescale(t, model());
  EXPECT_DOUBLE_EQ(scaled.computation_time(0),
                   0.5 + 1.0 * scale(kMid) + 2.0 * scale(kSlow));
  EXPECT_DOUBLE_EQ(scaled.computation_time(1),
                   0.5 + 2.0 * scale(kMid) + 4.0 * scale(kSlow));
}

TEST(ScaleComputePerIteration, PerRankFactorsApply) {
  const Trace t = marked_trace(1);
  const GearSchedule s = iteration_schedule({{kSlow, kFast}}, {kMid, kMid});
  const Trace scaled = s.rescale(t, model());
  // The prologue runs at the fallback gear.
  EXPECT_DOUBLE_EQ(scaled.computation_time(0),
                   0.5 * scale(kMid) + 1.0 * scale(kSlow));
  EXPECT_DOUBLE_EQ(scaled.computation_time(1),
                   0.5 * scale(kMid) + 2.0 * scale(kFast));
}

TEST(ScaleComputePerIteration, RejectsUnmarkedTrace) {
  EXPECT_THROW(
      iteration_schedule({{kRef, kRef}}, {kRef, kRef}).rescale(base_trace(),
                                                               model()),
      Error);
}

TEST(ScaleComputePerIteration, RejectsMissingIterationFactors) {
  EXPECT_THROW(
      iteration_schedule({{kRef, kRef}}, {kRef, kRef}).rescale(marked_trace(3),
                                                               model()),
      Error);
}

TEST(AddIterationOverhead, InsertsBurstsAfterBeginMarkers) {
  const Trace t = marked_trace(2);
  const GearSchedule s = iteration_schedule(
      {{kSlow, kRef}, {kRef, kRef}}, {kRef, kRef}, {{0.1, 0.0}, {0.0, 0.2}});
  const Trace out = s.rescale(t, model());
  // The burst lands inside the right iteration, right after its begin
  // marker, and is not stretched by the iteration's gear.
  const auto per_iteration = iteration_computation_times(out);
  EXPECT_DOUBLE_EQ(per_iteration[0][0], 1.0 * scale(kSlow) + 0.1);
  EXPECT_DOUBLE_EQ(per_iteration[1][1], 4.0 + 0.2);
  EXPECT_DOUBLE_EQ(out.computation_time(1), t.computation_time(1) + 0.2);
  const auto* stall = std::get_if<ComputeEvent>(&out.events(0)[2]);
  ASSERT_NE(stall, nullptr);
  EXPECT_DOUBLE_EQ(stall->duration, 0.1);
  EXPECT_EQ(stall->phase, -1);
  EXPECT_EQ(out.total_events(), t.total_events() + 2);
}

TEST(AddIterationOverhead, ZeroOverheadIsIdentity) {
  const Trace t = marked_trace(2);
  const GearSchedule s = iteration_schedule(
      {{kRef, kRef}, {kRef, kRef}}, {kRef, kRef}, {{0.0, 0.0}, {0.0, 0.0}});
  EXPECT_EQ(s.rescale(t, model()), t);
}

TEST(AddIterationOverhead, RejectsBadInput) {
  EXPECT_THROW(iteration_schedule({{kRef, kRef}}, {kRef, kRef}, {{0.0, 0.0}})
                   .rescale(base_trace(), model()),
               Error);
  const Trace t = marked_trace(2);
  const std::vector<std::vector<Gear>> rows{{kRef, kRef}, {kRef, kRef}};
  EXPECT_THROW(  // stalls for 1 of 2 iterations
      iteration_schedule(rows, {kRef, kRef}, {{0.0, 0.0}}).rescale(t, model()),
      Error);
  EXPECT_THROW(iteration_schedule(rows, {kRef, kRef}, {{-0.1, 0.0}, {0.0, 0.0}})
                   .rescale(t, model()),
               Error);
}

TEST(Energy, ScheduledEnergyUsesPerIterationGears) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1, 0});
  tl.append(0, {1.0, 2.0, RankState::kCompute, -1, 1});
  const GearSchedule s = iteration_schedule({{kRef}, {kSlow}}, {kRef});
  const double expected = 1.0 * model().total_power(kRef, true) +
                          1.0 * model().total_power(kSlow, true);
  EXPECT_NEAR(s.energy(model(), tl), expected, 1e-12);
}

TEST(Energy, ScheduledEnergyFallsBackOutsideIterations) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1, -1});  // prologue
  tl.append(0, {1.0, 2.0, RankState::kCompute, -1, 0});
  const GearSchedule s = iteration_schedule({{kSlow}}, {kRef});
  const double expected = 1.0 * model().total_power(kRef, true) +
                          1.0 * model().total_power(kSlow, true);
  EXPECT_NEAR(s.energy(model(), tl), expected, 1e-12);
}

TEST(Energy, ScheduledEnergyChargesIdleTailAtFallback) {
  Timeline tl(2);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1, 0});
  tl.append(1, {0.0, 3.0, RankState::kCompute, -1, 0});
  GearSchedule s = iteration_schedule({{kRef, kRef}}, {kSlow, kSlow});
  s.transition_energy = 0.25;
  const double expected = 1.0 * model().total_power(kRef, true) +
                          2.0 * model().total_power(kSlow, false) +  // tail
                          3.0 * model().total_power(kRef, true) + 0.25;
  EXPECT_NEAR(s.energy(model(), tl), expected, 1e-12);
}

TEST(Energy, ScheduledEnergyValidatesShapes) {
  Timeline tl(2);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1, 0});
  tl.append(1, {0.0, 1.0, RankState::kCompute, -1, 0});
  EXPECT_THROW(iteration_schedule({{kRef}}, {kRef, kRef}).energy(model(), tl),
               Error);
  EXPECT_THROW(iteration_schedule({{kRef, kRef}}, {kRef}).energy(model(), tl),
               Error);
  // An interval of an iteration the schedule has no row for.
  Timeline late(2);
  late.append(0, {0.0, 1.0, RankState::kCompute, -1, 3});
  late.append(1, {0.0, 1.0, RankState::kCompute, -1, 0});
  EXPECT_THROW(
      iteration_schedule({{kRef, kRef}}, {kRef, kRef}).energy(model(), late),
      Error);
}

TEST(Energy, PhaseEnergyChargesPerPhaseGears) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, 0, -1});
  tl.append(0, {1.0, 2.0, RankState::kWait, -1, -1});
  tl.append(0, {2.0, 3.0, RankState::kCompute, 1, -1});
  const GearSchedule s = phase_schedule({0, 1}, {{kSlow}, {kMid}}, {kRef});
  const double expected = 1.0 * model().total_power(kSlow, true) +
                          1.0 * model().total_power(kRef, false) +
                          1.0 * model().total_power(kMid, true);
  EXPECT_NEAR(s.energy(model(), tl), expected, 1e-12);
}

TEST(Energy, PhaseEnergyRejectsUnknownPhaseLabel) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, 7, -1});
  EXPECT_THROW(phase_schedule({0}, {{kRef}}, {kRef}).energy(model(), tl),
               Error);
}

TEST(Energy, PhaseEnergyMatchesTotalEnergyForUniformGears) {
  // One integrator, one summation order: equal gears give the same bits.
  Timeline tl(2);
  tl.append(0, {0.0, 1.0, RankState::kCompute, 0, -1});
  tl.append(0, {1.0, 1.5, RankState::kWait, -1, -1});
  tl.append(1, {0.0, 1.5, RankState::kCompute, 0, -1});
  const std::vector<Gear> gears{kMid, kFast};
  EXPECT_EQ(phase_schedule({0}, {gears}, gears).energy(model(), tl),
            model().total_energy(tl, gears));
}

TEST(GearSchedule, WholeRunMatchesScaleComputeAndTotalEnergyExactly) {
  const Trace t = marked_trace(3);
  GearSchedule s;
  s.fallback.gears = {kSlow, kMid};
  const std::vector<double> factors{scale(kSlow), scale(kMid)};
  EXPECT_EQ(s.rescale(t, model()), scale_compute(t, factors));

  Timeline tl(2);
  tl.append(0, {0.0, 1.25, RankState::kCompute, 2, 0});
  tl.append(0, {1.25, 2.0, RankState::kRecv, -1, 0});
  tl.append(1, {0.0, 1.75, RankState::kCompute, -1, 1});
  EXPECT_EQ(s.energy(model(), tl), model().total_energy(tl, s.fallback.gears));
}

TEST(GearSchedule, PowerSeriesFollowsTheScheduleGears) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1, 0});
  tl.append(0, {1.0, 2.0, RankState::kCompute, -1, 1});
  tl.append(0, {2.0, 3.0, RankState::kWait, -1, -1});
  const GearSchedule s = iteration_schedule({{kRef}, {kSlow}}, {kMid});
  const std::vector<double> series = s.power_series(model(), tl, 1.0);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_NEAR(series[0], model().total_power(kRef, true), 1e-12);
  EXPECT_NEAR(series[1], model().total_power(kSlow, true), 1e-12);
  EXPECT_NEAR(series[2], model().total_power(kMid, false), 1e-12);
  EXPECT_NEAR(series[0] + series[1] + series[2], s.energy(model(), tl),
              1e-12);
}

TEST(GearSchedule, OverclockedFractionCountsAnyRowOrTheFallback) {
  const double nominal = 2.3;
  const Gear over{2.6, 1.6};
  GearSchedule run;
  run.fallback.gears = {over, kRef, kRef, kSlow};
  EXPECT_DOUBLE_EQ(run.overclocked_fraction(nominal), 0.25);
  const GearSchedule iterated = iteration_schedule(
      {{kRef, kRef}, {kRef, over}, {over, over}}, {kRef, kRef});
  EXPECT_DOUBLE_EQ(iterated.overclocked_fraction(nominal), 1.0);
}

// gear_stuck pins every decision of every shape: the whole-run fallback,
// each phase row and each controller row.
TEST(PlanSchedule, GearStuckPinsEveryShape) {
  Trace t(4);
  for (Rank r = 0; r < 4; ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < 3; ++i)
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(0.1 * (r + 1), 0)
          .collective(CollectiveOp::kBarrier, 0)
          .compute(0.1 * (4 - r + i), 1)
          .collective(CollectiveOp::kBarrier, 0)
          .marker(MarkerKind::kIterationEnd, i);
  }
  const fault::Injector stuck(fault::FaultPlan::parse(
      "seed=1; gear_stuck:rank=1,gear=min; gear_stuck:rank=2,gear=max"));
  PipelineConfig config = default_pipeline_config(paper_uniform(6));
  config.replay.faults = &stuck;
  const Gear lo = config.algorithm.gear_set.min_gear();
  const Gear hi = config.algorithm.gear_set.max_gear();
  const auto expect_pinned = [&](const std::vector<Gear>& gears,
                                 const std::string& what) {
    EXPECT_EQ(gears[1].frequency_ghz, lo.frequency_ghz) << what;
    EXPECT_EQ(gears[2].frequency_ghz, hi.frequency_ghz) << what;
  };
  const std::vector<Seconds> seed = t.computation_times();

  const GearSchedule whole = plan_schedule(t, config, seed);
  EXPECT_EQ(whole.key, SegmentKey::kRun);
  expect_pinned(whole.fallback.gears, "whole run");

  PipelineConfig phased = config;
  phased.per_phase = true;
  const GearSchedule per_phase = plan_schedule(t, phased, seed);
  ASSERT_EQ(per_phase.rows.size(), 2u);
  expect_pinned(per_phase.fallback.gears, "per-phase fallback");
  for (const auto& row : per_phase.rows) expect_pinned(row, "phase row");

  PipelineConfig controlled = config;
  controlled.controller.kind = ControllerKind::kDynamicMax;
  const GearSchedule iterated = plan_schedule(t, controlled, seed);
  ASSERT_EQ(iterated.rows.size(), 3u);
  for (const auto& row : iterated.rows) expect_pinned(row, "iteration row");
}

}  // namespace
}  // namespace pals
