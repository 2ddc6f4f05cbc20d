// The scaled replay applies a DVFS schedule as it reads each burst, from a
// ReplayProgram compiled once per trace. This suite checks it bit for bit
// against the implementation it replaced: copy the trace with every burst
// stretched and every stall inserted (reference_rescale below), then
// replay the copy with a freshly compiled program. It runs on the seeded
// random traces of golden/replay_pins.csv under whole-run, per-phase and
// controller schedules with stalls, with and without jitter/slow-node
// faults, on homogeneous and heterogeneous machines — the differential
// style of simulator verification (Mohammed et al., arXiv:1910.06844).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "analysis/replay_pins.hpp"
#include "core/gear_schedule.hpp"
#include "fault/fault_plan.hpp"
#include "power/gearset.hpp"
#include "random_schedules.hpp"
#include "replay/replay.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pals {
namespace {

/// The trace the scaled run used to replay, built in one pass: every
/// compute burst stretched by the β time model at its gear, and each
/// iteration's stall inserted right after its begin marker as an
/// unphased, unstretched burst.
Trace reference_rescale(const GearSchedule& schedule, const Trace& trace,
                        const PowerModel& power) {
  Trace out(trace.n_ranks());
  out.set_name(trace.name());
  std::vector<double> row_factor(schedule.rows.size());
  for (Rank r = 0; r < trace.n_ranks(); ++r) {
    const auto rank = static_cast<std::size_t>(r);
    for (std::size_t s = 0; s < schedule.rows.size(); ++s)
      row_factor[s] = power.time_scale(schedule.rows[s][rank].frequency_ghz);
    const double fallback_factor =
        power.time_scale(schedule.fallback.gears[rank].frequency_ghz);
    std::vector<Event>& events = out.mutable_events(r);
    std::int32_t iteration = -1;
    for (const Event& e : trace.events(r)) {
      events.push_back(e);
      if (auto* c = std::get_if<ComputeEvent>(&events.back())) {
        std::ptrdiff_t row = -1;
        if (schedule.key == SegmentKey::kPhase && c->phase >= 0) {
          for (std::size_t s = 0; s < schedule.phases.size(); ++s)
            if (schedule.phases[s] == c->phase)
              row = static_cast<std::ptrdiff_t>(s);
        } else if (schedule.key == SegmentKey::kIteration && iteration >= 0) {
          row = iteration;
        }
        c->duration *= row < 0 ? fallback_factor
                               : row_factor[static_cast<std::size_t>(row)];
        continue;
      }
      const auto* m = std::get_if<MarkerEvent>(&e);
      if (m == nullptr) continue;
      if (m->kind == MarkerKind::kIterationEnd) iteration = -1;
      if (m->kind != MarkerKind::kIterationBegin) continue;
      iteration = m->id;
      if (schedule.stalls.empty()) continue;
      const Seconds stall =
          schedule.stalls[static_cast<std::size_t>(m->id)][rank];
      if (stall > 0.0) events.push_back(ComputeEvent{stall, -1});
    }
  }
  return out;
}

void expect_identical(const ReplayResult& a, const ReplayResult& b,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_TRUE(a.timeline == b.timeline);
  EXPECT_TRUE(a.messages == b.messages);
  EXPECT_TRUE(a.collectives == b.collectives);
  EXPECT_EQ(a.compute_time, b.compute_time);
  EXPECT_EQ(a.communication_time, b.communication_time);
  EXPECT_EQ(a.point_to_point_messages, b.point_to_point_messages);
  EXPECT_EQ(a.point_to_point_bytes, b.point_to_point_bytes);
  EXPECT_EQ(a.eager_messages, b.eager_messages);
  EXPECT_EQ(a.rendezvous_messages, b.rendezvous_messages);
  EXPECT_EQ(a.collective_operations, b.collective_operations);
  EXPECT_EQ(a.bus_contention_delay, b.bus_contention_delay);
  EXPECT_EQ(a.link_contention_delay, b.link_contention_delay);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
  EXPECT_EQ(a.sim_queue_peak, b.sim_queue_peak);
  EXPECT_EQ(a.fault_compute_perturbations, b.fault_compute_perturbations);
  EXPECT_EQ(a.fault_transfer_perturbations, b.fault_transfer_perturbations);
  EXPECT_EQ(a.fault_jitter_injections, b.fault_jitter_injections);
}

TEST(ReplayScaleDifferential, MatchesReplayOfRescaledTrace) {
  const fault::Injector faults(fault::FaultPlan::parse(
      "seed=7; msg_delay_jitter:rank=all,max=1e-4; "
      "node_slowdown:rank=1,t=0.0,factor=2"));
  for (const ReplayPinCase& pin : replay_pin_cases()) {
    const ReplayProgram program(pin.trace);  // reused by every replay below
    Rng speeds(pin.seed + 2000);
    std::vector<double> relative_speed;
    for (Rank r = 0; r < pin.trace.n_ranks(); ++r)
      relative_speed.push_back(speeds.uniform(0.5, 2.0));
    const std::vector<GearSchedule> schedules =
        schedules_for(pin.trace, pin.seed);
    for (std::size_t s = 0; s < schedules.size(); ++s) {
      const GearSchedule& schedule = schedules[s];
      const Trace rescaled = reference_rescale(schedule, pin.trace, model());
      std::vector<double> storage;
      const ReplayScale scale =
          schedule.replay_scale(model(), pin.trace.n_ranks(), storage);
      for (const bool faulty : {false, true}) {
        for (const bool hetero : {false, true}) {
          ReplayConfig config = pin.config;
          config.faults = faulty ? &faults : nullptr;
          if (hetero) config.relative_speed = relative_speed;
          expect_identical(
              replay(pin.trace, program, config, &scale),
              replay(rescaled, config),
              pin.name + " schedule " + std::to_string(s) +
                  (faulty ? " faults" : "") + (hetero ? " hetero" : ""));
        }
      }
    }
  }
}

TEST(ReplayScaleDifferential, ReusedProgramMatchesFreshReplay) {
  for (const ReplayPinCase& pin : replay_pin_cases()) {
    const ReplayProgram program(pin.trace);
    const ReplayResult fresh = replay(pin.trace, pin.config);
    for (int run = 0; run < 2; ++run)
      expect_identical(replay(pin.trace, program, pin.config), fresh,
                       pin.name + " run " + std::to_string(run));
  }
}

TEST(ReplayProgramChecks, RejectsTraceOfAnotherShape) {
  Trace a(2);
  TraceBuilder(a, 0).compute(1.0).send(1, 0, 8);
  TraceBuilder(a, 1).recv(0, 0, 8);
  Trace b = a;
  TraceBuilder(b, 1).compute(2.0);
  Trace c(3);
  TraceBuilder(c, 0).compute(1.0);
  const ReplayProgram program(a);
  EXPECT_TRUE(program.matches(a));
  EXPECT_NO_THROW(replay(a, program, ReplayConfig{}));
  EXPECT_THROW(replay(b, program, ReplayConfig{}), Error);
  EXPECT_THROW(replay(c, program, ReplayConfig{}), Error);
}

TEST(ReplayProgramChecks, RejectsBadFactorsAndStalls) {
  Trace t(2);
  for (Rank r = 0; r < 2; ++r)
    TraceBuilder(t, r)
        .marker(MarkerKind::kIterationBegin, 0)
        .compute(1.0)
        .collective(CollectiveOp::kBarrier, 0)
        .marker(MarkerKind::kIterationEnd, 0);
  const ReplayProgram program(t);
  const std::vector<double> fallback{1.0, 1.0};
  const auto run_with = [&](std::vector<double> factors,
                            std::vector<double> stalls,
                            std::vector<double> power = {}) {
    ReplayScale scale;
    scale.segment = ReplayScale::Segment::kIteration;
    scale.factors = factors;
    scale.fallback = fallback;
    scale.stalls = stalls;
    scale.power = power;
    return replay(t, program, ReplayConfig{}, &scale);
  };
  EXPECT_NO_THROW(run_with({1.5, 2.0}, {0.0, 0.25}));
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(run_with({bad, 1.0}, {}), Error) << bad;
  EXPECT_THROW(run_with({1.0, 1.0}, {0.0, -0.1}), Error);
  EXPECT_THROW(run_with({1.0, 1.0}, {0.0}), Error);  // half a stall row
  // Power rates: (1 row + fallback) x 2 ranks x {idle, computing}.
  const std::vector<double> power(8, 1.0);
  EXPECT_NO_THROW(run_with({1.0, 1.0}, {}, power));
  EXPECT_THROW(run_with({1.0, 1.0}, {}, {1.0, 1.0, 1.0, 1.0}), Error);
  for (const double bad : {-1.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> rates = power;
    rates[5] = bad;
    EXPECT_THROW(run_with({1.0, 1.0}, {}, rates), Error) << bad;
  }
}

}  // namespace
}  // namespace pals
