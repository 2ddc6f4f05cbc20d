// GearSchedule: the one scale table and the one energy integrator behind
// every schedule shape (whole run, per phase, per iteration). The scale
// cases replay the schedule (replay_scale, applied inside the replay);
// their suite names follow the per-phase / per-iteration transforms and
// integrators these cases first covered, and the behaviours are the same
// — missing-row and rank-count rejection, stall placement after the
// iteration-begin marker, the fallback outside keyed segments and the
// idle-tail charge.
#include "core/gear_schedule.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "replay/replay.hpp"
#include "trace/transform.hpp"
#include "reference.hpp"
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

/// The pipeline's scaled replay of `t` under `s` on the default platform.
ReplayResult scaled_replay(const GearSchedule& s, const Trace& t) {
  std::vector<double> storage;
  const ReplayScale scale = s.replay_scale(model(), t.n_ranks(), storage);
  return replay(t, ReplayProgram(t), ReplayConfig{}, &scale);
}

/// Compute seconds of `rank` inside `iteration` (-1 = outside any).
Seconds compute_in(const ReplayResult& result, Rank rank,
                   std::int32_t iteration) {
  Seconds total = 0.0;
  for (const StateInterval& iv : result.timeline.intervals(rank))
    if (iv.state == RankState::kCompute && iv.iteration == iteration)
      total += iv.end - iv.begin;
  return total;
}

TEST(ScaleComputePerPhase, UsesPhaseFactors) {
  // Rank 0: the unphased burst follows the fallback, the phase-1 burst
  // row 1. Rank 1: the phase-0 burst follows row 0.
  const GearSchedule s = phase_schedule({0, 1}, {{kRef, kSlow}, {kMid, kRef}},
                                        {kFast, kRef});
  const ReplayResult scaled = scaled_replay(s, base_trace());
  EXPECT_NEAR(scaled.compute_time[0], 1.0 * scale(kFast) + 2.0 * scale(kMid),
              1e-12);
  EXPECT_NEAR(scaled.compute_time[1], 4.0 * scale(kSlow), 1e-12);
}

TEST(ScaleComputePerPhase, RejectsMissingPhaseFactor) {
  const GearSchedule s = phase_schedule({0}, {{kRef, kRef}}, {kRef, kRef});
  EXPECT_THROW(scaled_replay(s, base_trace()), Error);  // no phase 1
}

TEST(ScaleComputePerPhase, RejectsRankCountMismatch) {
  EXPECT_THROW(scaled_replay(phase_schedule({0, 1}, {{kRef}, {kRef}},
                                            {kRef, kRef}),
                             base_trace()),
               Error);
  EXPECT_THROW(scaled_replay(phase_schedule({0, 1},
                                            {{kRef, kRef}, {kRef, kRef}},
                                            {kRef}),
                             base_trace()),
               Error);
}

TEST(ScaleComputePerIteration, ScalesOnlyInsideIterations) {
  // The reference-gear fallback leaves the prologue's duration exact.
  const Trace t = marked_trace(2);
  const GearSchedule s =
      iteration_schedule({{kMid, kMid}, {kSlow, kSlow}}, {kRef, kRef});
  const ReplayResult scaled = scaled_replay(s, t);
  EXPECT_NEAR(scaled.compute_time[0],
              0.5 + 1.0 * scale(kMid) + 2.0 * scale(kSlow), 1e-12);
  EXPECT_NEAR(scaled.compute_time[1],
              0.5 + 2.0 * scale(kMid) + 4.0 * scale(kSlow), 1e-12);
}

TEST(ScaleComputePerIteration, PerRankFactorsApply) {
  const Trace t = marked_trace(1);
  const GearSchedule s = iteration_schedule({{kSlow, kFast}}, {kMid, kMid});
  const ReplayResult scaled = scaled_replay(s, t);
  // The prologue runs at the fallback gear.
  EXPECT_NEAR(scaled.compute_time[0], 0.5 * scale(kMid) + 1.0 * scale(kSlow),
              1e-12);
  EXPECT_NEAR(scaled.compute_time[1], 0.5 * scale(kMid) + 2.0 * scale(kFast),
              1e-12);
}

TEST(ScaleComputePerIteration, RejectsUnmarkedTrace) {
  EXPECT_THROW(scaled_replay(iteration_schedule({{kRef, kRef}}, {kRef, kRef}),
                             base_trace()),
               Error);
}

TEST(ScaleComputePerIteration, RejectsMissingIterationFactors) {
  EXPECT_THROW(scaled_replay(iteration_schedule({{kRef, kRef}}, {kRef, kRef}),
                             marked_trace(3)),
               Error);
}

TEST(AddIterationOverhead, InsertsBurstsAfterBeginMarkers) {
  const Trace t = marked_trace(2);
  const GearSchedule s = iteration_schedule(
      {{kSlow, kRef}, {kRef, kRef}}, {kRef, kRef}, {{0.1, 0.0}, {0.0, 0.2}});
  const ReplayResult out = scaled_replay(s, t);
  // The stall runs inside the right iteration, right after its begin
  // marker, and is not stretched by the iteration's gear.
  EXPECT_NEAR(compute_in(out, 0, 0), 1.0 * scale(kSlow) + 0.1, 1e-12);
  EXPECT_NEAR(compute_in(out, 1, 1), 4.0 + 0.2, 1e-12);
  EXPECT_NEAR(out.compute_time[1], t.computation_time(1) + 0.2, 1e-12);
  // Rank 0's iteration 0 starts with the stall where the prologue ends.
  const std::span<const StateInterval> rank0 = out.timeline.intervals(0);
  ASSERT_GE(rank0.size(), 2u);
  EXPECT_EQ(rank0[1].iteration, 0);
  EXPECT_EQ(rank0[1].phase, -1);
  EXPECT_EQ(rank0[1].begin, 0.5);
}

TEST(AddIterationOverhead, ZeroOverheadIsIdentity) {
  const Trace t = marked_trace(2);
  const GearSchedule s = iteration_schedule(
      {{kRef, kRef}, {kRef, kRef}}, {kRef, kRef}, {{0.0, 0.0}, {0.0, 0.0}});
  const ReplayResult scaled = scaled_replay(s, t);
  const ReplayResult plain = replay(t, ReplayConfig{});
  EXPECT_EQ(scaled.makespan, plain.makespan);
  EXPECT_TRUE(scaled.timeline == plain.timeline);
  EXPECT_EQ(scaled.simulated_events, plain.simulated_events);
}

TEST(AddIterationOverhead, RejectsBadInput) {
  EXPECT_THROW(scaled_replay(iteration_schedule({{kRef, kRef}}, {kRef, kRef},
                                                {{0.0, 0.0}}),
                             base_trace()),
               Error);
  const Trace t = marked_trace(2);
  const std::vector<std::vector<Gear>> rows{{kRef, kRef}, {kRef, kRef}};
  EXPECT_THROW(  // stalls for 1 of 2 iterations
      scaled_replay(iteration_schedule(rows, {kRef, kRef}, {{0.0, 0.0}}), t),
      Error);
  EXPECT_THROW(scaled_replay(iteration_schedule(rows, {kRef, kRef},
                                                {{-0.1, 0.0}, {0.0, 0.0}}),
                             t),
               Error);
}

TEST(Energy, ScheduledEnergyUsesPerIterationGears) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1, 0});
  tl.append(0, {1.0, 2.0, RankState::kCompute, -1, 1});
  const GearSchedule s = iteration_schedule({{kRef}, {kSlow}}, {kRef});
  const double expected = 1.0 * model().total_power(kRef, true) +
                          1.0 * model().total_power(kSlow, true);
  EXPECT_NEAR(schedule_energy(s, model(), tl), expected, 1e-12);
}

TEST(Energy, ScheduledEnergyFallsBackOutsideIterations) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1, -1});  // prologue
  tl.append(0, {1.0, 2.0, RankState::kCompute, -1, 0});
  const GearSchedule s = iteration_schedule({{kSlow}}, {kRef});
  const double expected = 1.0 * model().total_power(kRef, true) +
                          1.0 * model().total_power(kSlow, true);
  EXPECT_NEAR(schedule_energy(s, model(), tl), expected, 1e-12);
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
  EXPECT_NEAR(schedule_energy(s, model(), tl), expected, 1e-12);
}

TEST(Energy, ScheduledEnergyValidatesShapes) {
  Timeline tl(2);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1, 0});
  tl.append(1, {0.0, 1.0, RankState::kCompute, -1, 0});
  EXPECT_THROW(schedule_energy(iteration_schedule({{kRef}}, {kRef, kRef}),
                               model(), tl),
               Error);
  EXPECT_THROW(schedule_energy(iteration_schedule({{kRef, kRef}}, {kRef}),
                               model(), tl),
               Error);
  // An interval of an iteration the schedule has no row for.
  Timeline late(2);
  late.append(0, {0.0, 1.0, RankState::kCompute, -1, 3});
  late.append(1, {0.0, 1.0, RankState::kCompute, -1, 0});
  EXPECT_THROW(
      schedule_energy(iteration_schedule({{kRef, kRef}}, {kRef, kRef}),
                      model(), late),
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
  EXPECT_NEAR(schedule_energy(s, model(), tl), expected, 1e-12);
}

TEST(Energy, PhaseEnergyRejectsUnknownPhaseLabel) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, 7, -1});
  EXPECT_THROW(
      schedule_energy(phase_schedule({0}, {{kRef}}, {kRef}), model(), tl),
      Error);
}

TEST(Energy, PhaseEnergyMatchesTotalEnergyForUniformGears) {
  // One integrator, one summation order: equal gears give the same bits.
  Timeline tl(2);
  tl.append(0, {0.0, 1.0, RankState::kCompute, 0, -1});
  tl.append(0, {1.0, 1.5, RankState::kWait, -1, -1});
  tl.append(1, {0.0, 1.5, RankState::kCompute, 0, -1});
  const std::vector<Gear> gears{kMid, kFast};
  EXPECT_EQ(schedule_energy(phase_schedule({0}, {gears}, gears), model(),
                            tl),
            model().total_energy(tl, gears));
}

TEST(GearSchedule, WholeRunMatchesScaleComputeAndTotalEnergyExactly) {
  const Trace t = marked_trace(3);
  GearSchedule s;
  s.fallback.gears = {kSlow, kMid};
  const std::vector<double> factors{scale(kSlow), scale(kMid)};
  const ReplayResult scaled = scaled_replay(s, t);
  const ReplayResult copied = replay(scale_compute(t, factors), ReplayConfig{});
  EXPECT_EQ(scaled.makespan, copied.makespan);
  EXPECT_TRUE(scaled.timeline == copied.timeline);

  Timeline tl(2);
  tl.append(0, {0.0, 1.25, RankState::kCompute, 2, 0});
  tl.append(0, {1.25, 2.0, RankState::kRecv, -1, 0});
  tl.append(1, {0.0, 1.75, RankState::kCompute, -1, 1});
  EXPECT_EQ(schedule_energy(s, model(), tl),
            model().total_energy(tl, s.fallback.gears));
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
  EXPECT_NEAR(series[0] + series[1] + series[2],
              schedule_energy(s, model(), tl), 1e-12);
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

  // The jitter stepper reads its gear index back from the pinned gears.
  controlled.controller.kind = ControllerKind::kJitter;
  const GearSchedule stepped = plan_schedule(t, controlled, seed);
  ASSERT_EQ(stepped.rows.size(), 3u);
  for (const auto& row : stepped.rows) expect_pinned(row, "jitter row");
  expect_pinned(stepped.fallback.gears, "jitter fallback");
}

}  // namespace
}  // namespace pals
