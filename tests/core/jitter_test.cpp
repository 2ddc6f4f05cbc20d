// The jitter controller (ControllerKind::kJitter, core/controllers.hpp):
// a Jitter-style gear stepper planned by plan_schedule and run through
// run_controller_pipeline like every other controller.
#include <gtest/gtest.h>

#include "core/controller_pipeline.hpp"
#include "core/controllers.hpp"
#include "util/error.hpp"
#include "workloads/apps.hpp"

namespace pals {
namespace {

/// Iteration-marked BSP trace with a fixed imbalance pattern.
Trace steady_trace(const std::vector<double>& weights, int iterations) {
  Trace t(static_cast<Rank>(weights.size()));
  for (Rank r = 0; r < t.n_ranks(); ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < iterations; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(0.05 * weights[static_cast<std::size_t>(r)])
          .collective(CollectiveOp::kAllreduce, 8)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  return t;
}

PipelineConfig default_config() {
  PipelineConfig c;
  c.algorithm.gear_set = paper_uniform(6);
  c.controller.kind = ControllerKind::kJitter;
  return c;
}

ControllerPipelineResult jitter_run(
    const Trace& t, const PipelineConfig& config = default_config()) {
  return run_controller_pipeline(t, config);
}

TEST(Jitter, ConfigValidation) {
  PipelineConfig c = default_config();
  EXPECT_NO_THROW(make_controller(c.controller, c.algorithm, c.power));
  c.algorithm.gear_set = paper_limited_continuous();
  EXPECT_THROW(make_controller(c.controller, c.algorithm, c.power), Error);
  EXPECT_THROW(jitter_run(steady_trace({0.5, 1.0}, 3), c), Error);
}

// Like every controller, jitter degrades to the documented static
// whole-run assignment on a trace without iteration markers.
TEST(Jitter, RequiresIterationMarkers) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0);
  TraceBuilder(t, 1).compute(2.0);
  const ControllerPipelineResult r = jitter_run(t);
  EXPECT_TRUE(r.controller.fell_back_static);
  EXPECT_TRUE(r.controller.schedule.empty());
  PipelineConfig static_config = default_config();
  static_config.controller.kind = ControllerKind::kStatic;
  const PipelineResult classic = run_pipeline(t, static_config);
  EXPECT_EQ(r.pipeline.assignment.gears, classic.assignment.gears);
  EXPECT_DOUBLE_EQ(r.pipeline.scaled_energy, classic.scaled_energy);
}

TEST(Jitter, BalancedTraceStaysAtTopGear) {
  const Trace t = steady_trace({1.0, 1.0, 1.0, 1.0}, 6);
  const ControllerPipelineResult r = jitter_run(t);
  for (const auto& iteration : r.controller.schedule)
    for (const Gear& g : iteration)
      EXPECT_NEAR(g.frequency_ghz, 2.3, 1e-12);
  EXPECT_EQ(r.controller.switches, 0u);
  EXPECT_NEAR(r.pipeline.normalized_energy(), 1.0, 1e-9);
  EXPECT_NEAR(r.pipeline.normalized_time(), 1.0, 1e-9);
}

TEST(Jitter, SteadyImbalanceConvergesTowardsStaticAssignment) {
  const std::vector<double> weights{0.2, 0.5, 0.8, 1.0};
  const Trace t = steady_trace(weights, 12);
  const ControllerPipelineResult dynamic = jitter_run(t);

  PipelineConfig static_config;
  static_config.algorithm.gear_set = paper_uniform(6);
  const PipelineResult static_result = run_pipeline(t, static_config);

  // After the stepping transient, each rank's gear equals the static
  // MAX-algorithm gear.
  const auto& final_gears = dynamic.controller.schedule.back();
  for (std::size_t r = 0; r < final_gears.size(); ++r) {
    EXPECT_NEAR(final_gears[r].frequency_ghz,
                static_result.assignment.gears[r].frequency_ghz, 1e-12)
        << "rank " << r;
  }
  // And the energy approaches the static result from above (the transient
  // iterations run too fast).
  EXPECT_LT(dynamic.pipeline.normalized_energy(), 1.0);
  EXPECT_GE(dynamic.pipeline.normalized_energy(),
            static_result.normalized_energy() - 1e-9);
}

TEST(Jitter, DownshiftsAtMostOneGearPerIteration) {
  const Trace t = steady_trace({0.1, 1.0}, 8);
  const ControllerPipelineResult r = jitter_run(t);
  const auto& schedule = r.controller.schedule;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    for (std::size_t rank = 0; rank < schedule[i].size(); ++rank) {
      const double prev = schedule[i - 1][rank].frequency_ghz;
      const double curr = schedule[i][rank].frequency_ghz;
      // Down: one uniform-6 step max. Up: may jump straight to the top.
      EXPECT_GE(curr - prev, -0.3 - 1e-9)
          << "iteration " << i << " rank " << rank;
    }
  }
}

TEST(Jitter, CriticalRankJumpsBackToTop) {
  // Rank 0 is light for the first half of the run, then becomes the heavy
  // rank; the runtime must restore its top gear within one iteration.
  Trace t(2);
  constexpr int kIterations = 10;
  for (Rank r = 0; r < 2; ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < kIterations; ++i) {
      const bool flipped = i >= kIterations / 2;
      const double w = (r == 0) == flipped ? 1.0 : 0.2;
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(0.05 * w)
          .collective(CollectiveOp::kAllreduce, 8)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  const ControllerPipelineResult r = jitter_run(t);
  // One observation lag after the flip, then rank 0 is back at 2.3 GHz.
  EXPECT_NEAR(r.controller.schedule[kIterations / 2 + 1][0].frequency_ghz,
              2.3, 1e-12);
}

TEST(Jitter, CriticalRankNeverLeavesTopGear) {
  const Trace t = steady_trace({0.3, 0.7, 1.0}, 10);
  const ControllerPipelineResult r = jitter_run(t);
  for (const auto& iteration : r.controller.schedule)
    EXPECT_NEAR(iteration[2].frequency_ghz, 2.3, 1e-12);
}

TEST(Jitter, DownshiftNeverViolatesCriticalPathPrediction) {
  const std::vector<double> weights{0.4, 0.6, 1.0};
  const Trace t = steady_trace(weights, 10);
  const PipelineConfig config = default_config();
  const ControllerPipelineResult r = jitter_run(t, config);
  const PowerModel power(config.power);
  for (const auto& iteration : r.controller.schedule) {
    const double t_max = 0.05 * 1.0;  // critical rank at top gear
    for (std::size_t rank = 0; rank < weights.size(); ++rank) {
      const double stretched =
          0.05 * weights[rank] *
          power.time_scale(iteration[rank].frequency_ghz);
      EXPECT_LE(stretched, t_max * (1.0 + 0.03)) << "rank " << rank;
    }
  }
}

TEST(Jitter, TimePenaltyBoundedOnSteadyTrace) {
  const Trace t = steady_trace({0.2, 0.5, 0.8, 1.0}, 10);
  const ControllerPipelineResult r = jitter_run(t);
  EXPECT_NEAR(r.pipeline.normalized_time(), 1.0, 0.02);
}

TEST(Jitter, AdaptsToDriftingImbalance) {
  WorkloadConfig workload;
  workload.ranks = 16;
  workload.iterations = 16;
  workload.target_lb = 0.5;
  const Trace t = make_amr_drift(workload);

  // Static MAX sees nearly balanced totals: little to save.
  PipelineConfig static_config;
  static_config.algorithm.gear_set = paper_uniform(6);
  const PipelineResult static_result = run_pipeline(t, static_config);

  const ControllerPipelineResult dynamic = jitter_run(t);

  EXPECT_GT(static_result.load_balance, 0.9);  // totals balanced
  // The dynamic runtime tracks the moving hot spot and saves clearly more
  // than the static whole-run assignment.
  EXPECT_LT(dynamic.pipeline.normalized_energy(),
            static_result.normalized_energy() - 0.05);
}

TEST(Jitter, TransitionPenaltyOnlyHurts) {
  const Trace t = steady_trace({0.2, 0.5, 1.0}, 10);
  PipelineConfig costly = default_config();
  costly.controller.transition_latency = 2e-3;  // 2 ms per switch
  const ControllerPipelineResult r_free = jitter_run(t);
  const ControllerPipelineResult r_costly = jitter_run(t, costly);
  EXPECT_GE(r_costly.pipeline.scaled_time, r_free.pipeline.scaled_time);
  EXPECT_GT(r_costly.pipeline.scaled_energy, r_free.pipeline.scaled_energy);
  EXPECT_EQ(r_costly.controller.switches, r_free.controller.switches);
}

TEST(Jitter, ZeroShiftsMeansNoPenalty) {
  const Trace t = steady_trace({1.0, 1.0}, 5);
  PipelineConfig config = default_config();
  config.controller.transition_latency = 1e-2;
  const ControllerPipelineResult r = jitter_run(t, config);
  EXPECT_EQ(r.controller.switches, 0u);
  EXPECT_NEAR(r.pipeline.normalized_time(), 1.0, 1e-9);
}

TEST(Jitter, RejectsNegativePenalty) {
  PipelineConfig config = default_config();
  config.controller.transition_latency = -1.0;
  EXPECT_THROW(jitter_run(steady_trace({0.5, 1.0}, 3), config), Error);
}

TEST(Jitter, SchedulesCoverEveryIteration) {
  const Trace t = steady_trace({0.5, 1.0}, 7);
  const ControllerPipelineResult r = jitter_run(t);
  EXPECT_EQ(r.controller.schedule.size(), 7u);
  EXPECT_GT(r.controller.switches, 0u);
}

TEST(Jitter, EdpConsistency) {
  const Trace t = steady_trace({0.3, 1.0}, 6);
  const ControllerPipelineResult r = jitter_run(t);
  EXPECT_NEAR(r.pipeline.normalized_edp(),
              r.pipeline.normalized_energy() * r.pipeline.normalized_time(),
              1e-12);
}

}  // namespace
}  // namespace pals
