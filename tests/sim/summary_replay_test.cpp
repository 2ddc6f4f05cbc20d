// A summary replay (ReplayOutput::kSummary) streams the same merged state
// intervals as a full replay but keeps only their sums: makespan,
// per-rank times, energy and counts. This suite compares the two bit for
// bit on the seeded random traces of golden/replay_pins.csv under
// whole-run, per-phase and controller-with-stalls schedules, with and
// without jitter/slow-node faults, on homogeneous and heterogeneous
// machines, and the in-pass energy against schedule_energy
// (tests/reference.hpp) over the full timeline. The prepared pipeline,
// which runs the summary replay, is compared with run_pipeline(trace,
// config) on every field a result row reads. Three hand-built traces with
// closed-form answers pin the idle pad, the iteration boundaries and the
// pricing of bursts outside every iteration, which the full and summary
// replays share and so cannot check against each other — the
// differential style of simulator verification (Mohammed et al.,
// arXiv:1910.06844).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/replay_pins.hpp"
#include "core/gear_schedule.hpp"
#include "core/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "network/platform.hpp"
#include "obs/metrics.hpp"
#include "power/gearset.hpp"
#include "random_schedules.hpp"
#include "reference.hpp"
#include "replay/replay.hpp"
#include "util/rng.hpp"

namespace pals {
namespace {

using Counters = std::map<std::string, std::uint64_t>;

/// The replay.* and fault.* counters of the process registry.
Counters replay_counters() {
  Counters out;
  for (const obs::MetricValue& m : obs::default_registry().snapshot().metrics)
    if (m.kind == obs::MetricKind::kCounter &&
        (m.name.starts_with("replay.") || m.name.starts_with("fault.")))
      out[m.name] = m.count;
  return out;
}

/// `run()`'s result, with the counter increments it caused.
template <class Run>
ReplayResult counted(const Run& run, Counters& deltas) {
  const Counters before = replay_counters();
  ReplayResult result = run();
  deltas = replay_counters();
  for (auto& [name, value] : deltas) {
    const auto it = before.find(name);
    if (it != before.end()) value -= it->second;
  }
  return result;
}

void expect_same_sums(const ReplayResult& summary, const ReplayResult& full) {
  EXPECT_EQ(summary.makespan, full.makespan);
  EXPECT_EQ(summary.compute_time, full.compute_time);
  EXPECT_EQ(summary.communication_time, full.communication_time);
  EXPECT_EQ(summary.energy, full.energy);
  EXPECT_EQ(summary.messages_matched, full.messages_matched);
  EXPECT_EQ(full.messages_matched, full.messages.size());
  EXPECT_EQ(summary.point_to_point_messages, full.point_to_point_messages);
  EXPECT_EQ(summary.point_to_point_bytes, full.point_to_point_bytes);
  EXPECT_EQ(summary.eager_messages, full.eager_messages);
  EXPECT_EQ(summary.rendezvous_messages, full.rendezvous_messages);
  EXPECT_EQ(summary.collective_operations, full.collective_operations);
  EXPECT_EQ(full.collective_operations, full.collectives.size());
  EXPECT_EQ(summary.bus_contention_delay, full.bus_contention_delay);
  EXPECT_EQ(summary.link_contention_delay, full.link_contention_delay);
  EXPECT_EQ(summary.simulated_events, full.simulated_events);
  EXPECT_EQ(summary.sim_queue_peak, full.sim_queue_peak);
  EXPECT_EQ(summary.fault_compute_perturbations,
            full.fault_compute_perturbations);
  EXPECT_EQ(summary.fault_transfer_perturbations,
            full.fault_transfer_perturbations);
  EXPECT_EQ(summary.fault_jitter_injections, full.fault_jitter_injections);
  // A summary keeps no intervals or logs.
  EXPECT_EQ(summary.timeline.n_ranks(), 0);
  EXPECT_TRUE(summary.messages.empty());
  EXPECT_TRUE(summary.collectives.empty());
}

/// What the in-pass merger promises of a full replay's timeline: valid,
/// every lane ending at the makespan, no two touching intervals of one
/// state, phase and iteration, and every iteration of the trace on every
/// lane (a pin iteration ends in a collective, which carries its label).
void expect_merged_and_padded(const ReplayResult& full,
                              std::size_t iterations) {
  const Timeline& tl = full.timeline;
  EXPECT_NO_THROW(validate_timeline(tl));
  for (Rank r = 0; r < tl.n_ranks(); ++r) {
    const auto lane = tl.intervals(r);
    ASSERT_FALSE(lane.empty()) << "rank " << r;
    EXPECT_EQ(lane.back().end, full.makespan) << "rank " << r;
    std::set<std::int32_t> labels;
    for (std::size_t k = 0; k < lane.size(); ++k) {
      labels.insert(lane[k].iteration);
      if (k == 0) continue;
      EXPECT_FALSE(lane[k].state == lane[k - 1].state &&
                   lane[k].phase == lane[k - 1].phase &&
                   lane[k].iteration == lane[k - 1].iteration)
          << "rank " << r << " interval " << k << " not merged";
    }
    for (std::size_t i = 0; i < iterations; ++i)
      EXPECT_TRUE(labels.contains(static_cast<std::int32_t>(i)))
          << "rank " << r << " lost iteration " << i;
  }
}

TEST(SummaryReplayDifferential, MatchesFullReplay) {
  const fault::Injector faults(fault::FaultPlan::parse(
      "seed=7; msg_delay_jitter:rank=all,max=1e-4; "
      "node_slowdown:rank=1,t=0.0,factor=2"));
  for (const ReplayPinCase& pin : replay_pin_cases()) {
    const ReplayProgram program(pin.trace);
    Rng speeds(pin.seed + 2000);
    std::vector<double> relative_speed;
    for (Rank r = 0; r < pin.trace.n_ranks(); ++r)
      relative_speed.push_back(speeds.uniform(0.5, 2.0));
    const std::vector<GearSchedule> schedules =
        schedules_for(pin.trace, pin.seed);
    for (std::size_t s = 0; s < schedules.size(); ++s) {
      const GearSchedule& schedule = schedules[s];
      std::vector<double> storage;
      const ReplayScale scale =
          schedule.replay_scale(model(), pin.trace.n_ranks(), storage);
      for (const bool faulty : {false, true}) {
        for (const bool hetero : {false, true}) {
          SCOPED_TRACE(pin.name + " schedule " + std::to_string(s) +
                       (faulty ? " faults" : "") + (hetero ? " hetero" : ""));
          ReplayConfig config = pin.config;
          if (faulty) config.faults = &faults;
          if (hetero) config.relative_speed = relative_speed;
          Counters full_counts;
          Counters summary_counts;
          const ReplayResult full = counted(
              [&] { return replay(pin.trace, program, config, &scale); },
              full_counts);
          const ReplayResult summary = counted(
              [&] {
                return replay(pin.trace, program, config, &scale,
                              ReplayOutput::kSummary);
              },
              summary_counts);
          expect_same_sums(summary, full);
          EXPECT_EQ(summary_counts, full_counts);
          EXPECT_EQ(summary.energy + schedule.transition_energy,
                    schedule_energy(schedule, model(), full.timeline));
          expect_merged_and_padded(full, pin.trace.iteration_count());
        }
      }
    }
  }
}

/// The fields flatten_result reads, and what they derive from.
void expect_same_row(const PipelineResult& prepared,
                     const PipelineResult& reference) {
  EXPECT_EQ(prepared.baseline_time, reference.baseline_time);
  EXPECT_EQ(prepared.baseline_energy, reference.baseline_energy);
  EXPECT_EQ(prepared.scaled_time, reference.scaled_time);
  EXPECT_EQ(prepared.scaled_energy, reference.scaled_energy);
  EXPECT_EQ(prepared.load_balance, reference.load_balance);
  EXPECT_EQ(prepared.parallel_efficiency, reference.parallel_efficiency);
  EXPECT_EQ(prepared.overclocked_fraction, reference.overclocked_fraction);
  EXPECT_EQ(prepared.normalized_edp(), reference.normalized_edp());
  const ReplayResult& scaled = prepared.scaled_replay;
  EXPECT_EQ(scaled.timeline.n_ranks(), 0);
  EXPECT_TRUE(scaled.messages.empty());
  EXPECT_TRUE(scaled.collectives.empty());
  EXPECT_EQ(scaled.messages_matched,
            reference.scaled_replay.messages.size());
  EXPECT_EQ(scaled.compute_time, reference.scaled_replay.compute_time);
}

TEST(SummaryReplayDifferential, PreparedPipelineMatchesTwoArgumentForm) {
  for (const ReplayPinCase& pin : replay_pin_cases()) {
    for (const char* shape : {"static", "per-phase", "slack"}) {
      SCOPED_TRACE(pin.name + " " + shape);
      PipelineConfig config = default_pipeline_config(paper_uniform(6));
      config.replay = pin.config;
      config.per_phase = std::string(shape) == "per-phase";
      if (std::string(shape) == "slack")
        config.controller.kind = controller_by_name("slack");
      const PipelineResult reference = run_pipeline(pin.trace, config);
      const ReplayProgram program(pin.trace);
      const ReplayResult baseline =
          replay(pin.trace, program, config.replay);
      const CellPlan plan = plan_cell(pin.trace, config, baseline);
      expect_same_row(
          run_pipeline(pin.trace, program, config, baseline, &plan),
          reference);
      expect_same_row(run_pipeline(pin.trace, program, config, baseline),
                      reference);
    }
  }
}

/// Whole-run schedule of one gear per rank.
GearSchedule run_schedule(std::vector<Gear> gears) {
  GearSchedule schedule;
  schedule.fallback.gears = std::move(gears);
  return schedule;
}

TEST(SummaryReplayDifferential, PadsShortLanesWithIdle) {
  // Rank 0 finishes at f0, rank 1 at 3·f1: rank 0 idles to the makespan.
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0);
  TraceBuilder(t, 1).compute(3.0);
  const GearSet gears = paper_uniform(6);
  const GearSchedule schedule =
      run_schedule({gears.gears().front(), gears.gears().back()});
  std::vector<double> storage;
  const ReplayScale scale = schedule.replay_scale(model(), 2, storage);
  const ReplayResult summary = replay(t, ReplayProgram(t), ReplayConfig{},
                                      &scale, ReplayOutput::kSummary);
  const double f0 = model().time_scale(gears.gears().front().frequency_ghz);
  const double f1 = model().time_scale(gears.gears().back().frequency_ghz);
  const Seconds pad = 3.0 * f1 - f0;
  ASSERT_GT(pad, 0.0);
  EXPECT_EQ(summary.makespan, 3.0 * f1);
  EXPECT_EQ(summary.communication_time, (std::vector<Seconds>{pad, 0.0}));
  const double expected =
      f0 * model().total_power(gears.gears().front(), true) +
      pad * model().total_power(gears.gears().front(), false) +
      3.0 * f1 * model().total_power(gears.gears().back(), true);
  EXPECT_NEAR(summary.energy, expected, 1e-12 * expected);
}

TEST(SummaryReplayDifferential, ChargesEachIterationItsOwnGear) {
  // Rank 0 only waits in a barrier per iteration, so its collective
  // intervals touch across iteration boundaries; each must be charged at
  // its own iteration's gear.
  constexpr int kIterations = 3;
  Trace t(2);
  for (int i = 0; i < kIterations; ++i) {
    TraceBuilder(t, 0)
        .marker(MarkerKind::kIterationBegin, i)
        .collective(CollectiveOp::kBarrier, 0)
        .marker(MarkerKind::kIterationEnd, i);
    TraceBuilder(t, 1)
        .marker(MarkerKind::kIterationBegin, i)
        .compute(1.0)
        .collective(CollectiveOp::kBarrier, 0)
        .marker(MarkerKind::kIterationEnd, i);
  }
  const GearSet gear_set = paper_uniform(6);
  const std::span<const Gear> gears = gear_set.gears();
  GearSchedule schedule;
  schedule.key = SegmentKey::kIteration;
  for (int i = 0; i < kIterations; ++i)
    schedule.rows.push_back(
        {gears[static_cast<std::size_t>(2 * i)],
         gears[static_cast<std::size_t>(2 * i + 1)]});
  schedule.fallback.gears = schedule.rows.front();
  std::vector<double> storage;
  const ReplayScale scale = schedule.replay_scale(model(), 2, storage);
  const ReplayConfig config;
  const ReplayProgram program(t);
  const ReplayResult full = replay(t, program, config, &scale);
  const ReplayResult summary =
      replay(t, program, config, &scale, ReplayOutput::kSummary);
  ASSERT_EQ(full.timeline.intervals(0).size(),
            static_cast<std::size_t>(kIterations));
  const Seconds barrier =
      collective_cost(config.platform, CollectiveOp::kBarrier, 2, 0);
  double expected = 0.0;
  for (int i = 0; i < kIterations; ++i) {
    const std::vector<Gear>& row = schedule.rows[static_cast<std::size_t>(i)];
    const double f = model().time_scale(row[1].frequency_ghz);
    expected += (f + barrier) * model().total_power(row[0], false) +
                f * model().total_power(row[1], true) +
                barrier * model().total_power(row[1], false);
  }
  EXPECT_NEAR(summary.energy, expected, 1e-12 * expected);
  EXPECT_EQ(summary.energy, full.energy);
}

TEST(SummaryReplayDifferential, PricesBurstsOutsideIterationsAtTheFallback) {
  // One rank, iteration rows fast/slow/fast and a fallback gear no row
  // uses. The bursts after iteration 1's end and after the last end run
  // at the fallback gear's speed, so they must be charged its power too,
  // not that of the iteration that just ended.
  Trace t(1);
  TraceBuilder b(t, 0);
  for (int i = 0; i < 3; ++i) {
    b.marker(MarkerKind::kIterationBegin, i)
        .compute(1.0)
        .marker(MarkerKind::kIterationEnd, i);
    if (i >= 1) b.compute(1.0);
  }
  const GearSet gear_set = paper_uniform(6);
  const Gear& fast = gear_set.gears().back();
  const Gear& slow = gear_set.gears().front();
  const Gear& fallback = gear_set.gears()[2];
  GearSchedule schedule;
  schedule.key = SegmentKey::kIteration;
  schedule.rows = {{fast}, {slow}, {fast}};
  schedule.fallback.gears = {fallback};
  std::vector<double> storage;
  const ReplayScale scale = schedule.replay_scale(model(), 1, storage);
  const ReplayProgram program(t);
  const ReplayResult full = replay(t, program, ReplayConfig{}, &scale);
  const ReplayResult summary =
      replay(t, program, ReplayConfig{}, &scale, ReplayOutput::kSummary);

  const auto burst = [](const Gear& gear) {
    const double seconds = model().time_scale(gear.frequency_ghz);
    return std::pair{seconds, seconds * model().total_power(gear, true)};
  };
  Seconds makespan = 0.0;
  double expected = 0.0;
  for (const Gear* gear : {&fast, &slow, &fallback, &fast, &fallback}) {
    makespan += burst(*gear).first;
    expected += burst(*gear).second;
  }
  for (const ReplayResult* result : {&full, &summary}) {
    EXPECT_NEAR(result->makespan, makespan, 1e-12 * makespan);
    EXPECT_NEAR(result->energy, expected, 1e-12 * expected);
  }
  EXPECT_EQ(summary.energy, full.energy);
  EXPECT_EQ(schedule_energy(schedule, model(), full.timeline), full.energy);
  // The two outside bursts carry no iteration label.
  const auto lane = full.timeline.intervals(0);
  ASSERT_EQ(lane.size(), 5u);
  for (const std::size_t k : {2u, 4u}) EXPECT_EQ(lane[k].iteration, -1);
}

}  // namespace
}  // namespace pals
