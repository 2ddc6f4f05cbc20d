#include "replay/replay.hpp"

#include <gtest/gtest.h>

#include "reference.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

/// Platform with easy arithmetic: latency 1 s, bandwidth 100 B/s,
/// eager threshold 100 B, no bus contention.
ReplayConfig unit_config() {
  ReplayConfig config;
  config.platform.latency = 1.0;
  config.platform.bandwidth = 100.0;
  config.platform.eager_threshold = 100;
  config.platform.buses = 0;
  return config;
}

TEST(Replay, ComputeOnlyMakespanIsMaxRank) {
  Trace t(3);
  TraceBuilder(t, 0).compute(1.0);
  TraceBuilder(t, 1).compute(5.0);
  TraceBuilder(t, 2).compute(3.0);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
  EXPECT_DOUBLE_EQ(r.compute_time[1], 5.0);
  // Idle tails of ranks 0 and 2 count as communication-state time.
  EXPECT_DOUBLE_EQ(r.communication_time[0], 4.0);
}

TEST(Replay, EagerSendSenderOnlyPaysLatency) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 100);
  TraceBuilder(t, 1).recv(0, 0, 100);
  const ReplayResult r = replay(t, unit_config());
  // Arrival = latency + 100/100 transfer = 2 s; sender done at 1 s.
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(0, RankState::kSend), 1.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(1, RankState::kRecv), 2.0);
}

TEST(Replay, EagerArrivalBeforeRecvPost) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 100);
  TraceBuilder(t, 1).compute(10.0).recv(0, 0, 100);
  const ReplayResult r = replay(t, unit_config());
  // Message arrived at 2 s; recv posted at 10 s returns immediately.
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(1, RankState::kRecv), 0.0);
}

TEST(Replay, EagerRecvPostedFirstBlocksUntilArrival) {
  Trace t(2);
  TraceBuilder(t, 0).compute(5.0).send(1, 0, 100);
  TraceBuilder(t, 1).recv(0, 0, 100);
  const ReplayResult r = replay(t, unit_config());
  // Send posted at 5, arrival 5 + 1 + 1 = 7.
  EXPECT_DOUBLE_EQ(r.makespan, 7.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(1, RankState::kRecv), 7.0);
}

TEST(Replay, RendezvousSenderBlocksForReceiver) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 200);  // 200 B > eager threshold
  TraceBuilder(t, 1).compute(3.0).recv(0, 0, 200);
  const ReplayResult r = replay(t, unit_config());
  // Transfer starts at max(0, 3) + 1 = 4, takes 2 s -> both done at 6.
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(0, RankState::kSend), 6.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(1, RankState::kRecv), 3.0);
}

TEST(Replay, RendezvousRecvPostedFirst) {
  Trace t(2);
  TraceBuilder(t, 0).compute(3.0).send(1, 0, 200);
  TraceBuilder(t, 1).recv(0, 0, 200);
  const ReplayResult r = replay(t, unit_config());
  // Transfer starts at max(3, 0) + 1 = 4, ends at 6.
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(1, RankState::kRecv), 6.0);
}

TEST(Replay, NonblockingSendOverlapsCompute) {
  Trace t(2);
  TraceBuilder(t, 0).isend(1, 0, 100, 0).compute(5.0).wait(0);
  TraceBuilder(t, 1).recv(0, 0, 100);
  const ReplayResult r = replay(t, unit_config());
  // isend completes at 1 s (< 5 s of compute): wait is free.
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(0, RankState::kWait), 0.0);
}

TEST(Replay, WaitBlocksUntilRendezvousCompletes) {
  Trace t(2);
  TraceBuilder(t, 0).isend(1, 0, 200, 0).compute(1.0).wait(0);
  TraceBuilder(t, 1).compute(2.0).recv(0, 0, 200);
  const ReplayResult r = replay(t, unit_config());
  // Transfer: max(0, 2) + 1 = 3 start, ends 5. Rank 0 waits 1 -> 5.
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(0, RankState::kWait), 4.0);
}

TEST(Replay, IrecvCompletesAtArrival) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 100);
  TraceBuilder(t, 1).irecv(0, 0, 100, 0).compute(1.0).wait(0);
  const ReplayResult r = replay(t, unit_config());
  // Arrival at 2; rank 1 computed until 1 then waits 1 -> 2.
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(1, RankState::kWait), 1.0);
}

TEST(Replay, WaitallWaitsForAllRequests) {
  Trace t(3);
  TraceBuilder(t, 0)
      .irecv(1, 0, 100, 0)
      .irecv(2, 0, 100, 1)
      .waitall();
  TraceBuilder(t, 1).compute(2.0).send(0, 0, 100);
  TraceBuilder(t, 2).compute(6.0).send(0, 0, 100);
  const ReplayResult r = replay(t, unit_config());
  // Last arrival: 6 + 2 = 8.
  EXPECT_DOUBLE_EQ(r.makespan, 8.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(0, RankState::kWait), 8.0);
}

TEST(Replay, CollectiveSynchronizesAllRanks) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0).collective(CollectiveOp::kAllreduce, 0);
  TraceBuilder(t, 1).collective(CollectiveOp::kAllreduce, 0);
  const ReplayResult r = replay(t, unit_config());
  // Last arrival 1; allreduce of 0 bytes over 2 ranks: 2 * 1 * (1) = 2.
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(1, RankState::kCollective), 3.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(0, RankState::kCollective), 2.0);
}

TEST(Replay, CollectiveSequencesInterleaveCorrectly) {
  Trace t(2);
  for (Rank r = 0; r < 2; ++r) {
    TraceBuilder(t, r)
        .collective(CollectiveOp::kBarrier, 0)
        .compute(r == 0 ? 1.0 : 2.0)
        .collective(CollectiveOp::kBarrier, 0);
  }
  const ReplayResult r = replay(t, unit_config());
  // Barrier over 2 ranks costs 1 stage * latency = 1.
  // t=0: barrier -> 1. Compute to 2 and 3. Second barrier: 3 + 1 = 4.
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
}

TEST(Replay, MessageOrderingWithinChannelIsFifo) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 7, 10).send(1, 7, 20);
  TraceBuilder(t, 1).recv(0, 7, 10).recv(0, 7, 20);
  EXPECT_NO_THROW(replay(t, unit_config()));
}

TEST(Replay, DistinctTagsMatchIndependently) {
  // Messages posted in "crossed" tag order still match by tag.
  Trace t(2);
  TraceBuilder(t, 0).send(1, 1, 10).send(1, 2, 10);
  TraceBuilder(t, 1).recv(0, 2, 10).recv(0, 1, 10);
  EXPECT_NO_THROW(replay(t, unit_config()));
}

TEST(Replay, BusContentionSerializesTransfers) {
  ReplayConfig config = unit_config();
  config.platform.buses = 1;
  Trace t(4);
  TraceBuilder(t, 0).send(1, 0, 100);
  TraceBuilder(t, 1).recv(0, 0, 100);
  TraceBuilder(t, 2).send(3, 0, 100);
  TraceBuilder(t, 3).recv(2, 0, 100);
  const ReplayResult r = replay(t, config);
  // One transfer delayed by a full transfer time (1 s).
  EXPECT_DOUBLE_EQ(r.bus_contention_delay, 1.0);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);  // second arrival at 1 + 1 + 1
}

TEST(Replay, EndpointLinksSerializeFanIn) {
  // Three senders target one receiver; with one input link per node the
  // receiving endpoint serializes the transfers.
  ReplayConfig config = unit_config();
  config.platform.links_per_node = 1;
  Trace t(4);
  TraceBuilder(t, 0)
      .irecv(1, 0, 100, 0)
      .irecv(2, 0, 100, 1)
      .irecv(3, 0, 100, 2)
      .waitall();
  for (Rank s = 1; s <= 3; ++s) TraceBuilder(t, s).send(0, 0, 100);
  const ReplayResult r = replay(t, config);
  // Transfers of 1 s each serialize at rank 0's input link: last arrival
  // is 2 (queue) + 1 (transfer) + 1 (latency) = 4 instead of 2.
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
  EXPECT_DOUBLE_EQ(r.link_contention_delay, 3.0);  // 1 + 2 seconds queued
}

TEST(Replay, EndpointLinksIdleWhenUnlimited) {
  Trace t(4);
  TraceBuilder(t, 0)
      .irecv(1, 0, 100, 0)
      .irecv(2, 0, 100, 1)
      .irecv(3, 0, 100, 2)
      .waitall();
  for (Rank s = 1; s <= 3; ++s) TraceBuilder(t, s).send(0, 0, 100);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_DOUBLE_EQ(r.link_contention_delay, 0.0);
}

TEST(Replay, DisjointPairsUnaffectedByEndpointLinks) {
  ReplayConfig config = unit_config();
  config.platform.links_per_node = 1;
  Trace t(4);
  TraceBuilder(t, 0).send(1, 0, 100);
  TraceBuilder(t, 1).recv(0, 0, 100);
  TraceBuilder(t, 2).send(3, 0, 100);
  TraceBuilder(t, 3).recv(2, 0, 100);
  const ReplayResult r = replay(t, config);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);  // no shared endpoints, no delay
  EXPECT_DOUBLE_EQ(r.link_contention_delay, 0.0);
}

TEST(Replay, UnlimitedBusesDoNotDelay) {
  Trace t(4);
  TraceBuilder(t, 0).send(1, 0, 100);
  TraceBuilder(t, 1).recv(0, 0, 100);
  TraceBuilder(t, 2).send(3, 0, 100);
  TraceBuilder(t, 3).recv(2, 0, 100);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_DOUBLE_EQ(r.bus_contention_delay, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
}

TEST(Replay, DeadlockIsDetectedAndReported) {
  Trace t(2);
  TraceBuilder(t, 0).recv(1, 0, 10);
  TraceBuilder(t, 1).compute(1.0);
  try {
    replay(t, unit_config());
    FAIL() << "expected deadlock error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("rank 0"), std::string::npos);
  }
}

TEST(Replay, WaitallOnNeverCompletedRequestReportsBlockedRank) {
  // Rank 0 waits on an irecv whose matching send never happens; rank 1
  // finishes normally. The replay must terminate with a diagnostic that
  // names the stuck rank, not hang.
  Trace t(2);
  TraceBuilder(t, 0).irecv(1, 0, 100, 0).waitall();
  TraceBuilder(t, 1).compute(1.0);
  try {
    replay(t, unit_config());
    FAIL() << "expected deadlock error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    // The finished rank must not be reported as blocked.
    EXPECT_EQ(what.find("rank 1 stuck"), std::string::npos) << what;
  }
}

TEST(Replay, WaitOnNeverCompletedRequestReportsBlockedRank) {
  Trace t(2);
  TraceBuilder(t, 0).irecv(1, 0, 100, 0).compute(0.5).wait(0);
  TraceBuilder(t, 1).compute(1.0);
  try {
    replay(t, unit_config());
    FAIL() << "expected deadlock error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_EQ(what.find("rank 1 stuck"), std::string::npos) << what;
  }
}

TEST(Replay, CollectiveMissingFromOneRankRejectedUpFront) {
  // A collective only a subset of ranks ever issues is caught by trace
  // validation before replay, naming the short rank.
  Trace t(3);
  TraceBuilder(t, 0).collective(CollectiveOp::kBarrier, 0);
  TraceBuilder(t, 1).compute(1.0).collective(CollectiveOp::kBarrier, 0);
  TraceBuilder(t, 2).compute(2.0);
  try {
    replay(t, unit_config());
    FAIL() << "expected validation error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
    EXPECT_NE(what.find("collective"), std::string::npos) << what;
  }
}

TEST(Replay, CollectiveEnteredBySubsetReportsAllBlockedRanks) {
  // Ranks 1 and 2 enter a barrier; rank 0 is stuck in an unmatched recv
  // before its own barrier, so the collective never completes. The
  // report must show every rank blocked, each at its real event.
  Trace t(3);
  TraceBuilder(t, 0).recv(1, 5, 10).collective(CollectiveOp::kBarrier, 0);
  TraceBuilder(t, 1).collective(CollectiveOp::kBarrier, 0);
  TraceBuilder(t, 2).compute(1.0).collective(CollectiveOp::kBarrier, 0);
  try {
    replay(t, unit_config());
    FAIL() << "expected deadlock error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
    EXPECT_NE(what.find("recv"), std::string::npos) << what;
    EXPECT_NE(what.find("coll"), std::string::npos) << what;
  }
}

TEST(Replay, DeadlockReportIncludesEventPosition) {
  // The diagnostic points at the event each blocked rank is stuck on.
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0).recv(1, 0, 10);
  TraceBuilder(t, 1).compute(1.0);
  try {
    replay(t, unit_config());
    FAIL() << "expected deadlock error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck at event"), std::string::npos) << what;
    EXPECT_NE(what.find("recv"), std::string::npos) << what;
  }
}

TEST(Replay, CrossedBlockingRendezvousSendsDeadlock) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 500).recv(1, 1, 500);
  TraceBuilder(t, 1).send(0, 1, 500).recv(0, 0, 500);
  EXPECT_THROW(replay(t, unit_config()), Error);
}

TEST(Replay, CrossedEagerSendsSucceed) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 50).recv(1, 1, 50);
  TraceBuilder(t, 1).send(0, 1, 50).recv(0, 0, 50);
  EXPECT_NO_THROW(replay(t, unit_config()));
}

TEST(Replay, PreservesComputeTimePerRank) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.25).send(1, 0, 100).compute(0.75);
  TraceBuilder(t, 1).compute(2.0).recv(0, 0, 100).compute(1.0);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_NEAR(r.compute_time[0], 2.0, 1e-12);
  EXPECT_NEAR(r.compute_time[1], 3.0, 1e-12);
}

TEST(Replay, TimelineIsPaddedAndValid) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0);
  TraceBuilder(t, 1).compute(4.0);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_NO_THROW(validate_timeline(r.timeline));
  // Rank 0 padded with idle up to the makespan.
  const auto lane = r.timeline.intervals(0);
  ASSERT_FALSE(lane.empty());
  EXPECT_DOUBLE_EQ(lane.back().end, r.makespan);
  EXPECT_EQ(lane.back().state, RankState::kIdle);
}

TEST(Replay, ComputePhaseLabelsLandInTimeline) {
  Trace t(1);
  TraceBuilder(t, 0).compute(1.0, 0).compute(2.0, 1);
  const ReplayResult r = replay(t, unit_config());
  const auto lane = r.timeline.intervals(0);
  ASSERT_EQ(lane.size(), 2u);
  EXPECT_EQ(lane[0].phase, 0);
  EXPECT_DOUBLE_EQ(lane[0].duration(), 1.0);
  EXPECT_EQ(lane[1].phase, 1);
  EXPECT_DOUBLE_EQ(lane[1].duration(), 2.0);
}

TEST(Replay, TrafficStatisticsAreCounted) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 100).collective(CollectiveOp::kBarrier, 0);
  TraceBuilder(t, 1).recv(0, 0, 100).collective(CollectiveOp::kBarrier, 0);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_EQ(r.point_to_point_messages, 1u);
  EXPECT_EQ(r.point_to_point_bytes, 100u);
  EXPECT_EQ(r.collective_operations, 1u);
  EXPECT_GT(r.simulated_events, 0u);
}

TEST(Replay, MarkersAreFree) {
  Trace t(1);
  TraceBuilder(t, 0)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(1.0)
      .marker(MarkerKind::kIterationEnd, 0);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
}

TEST(Replay, RootedCollectiveUsesMaxBytes) {
  // Ranks contribute different byte counts; the cost uses the maximum.
  Trace t(2);
  TraceBuilder(t, 0).collective(CollectiveOp::kGather, 100, 0);
  TraceBuilder(t, 1).collective(CollectiveOp::kGather, 300, 0);
  const ReplayResult r = replay(t, unit_config());
  // 1 stage * (1 + 300/100) = 4.
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
}

TEST(Replay, SingleRankTraceRuns) {
  Trace t(1);
  TraceBuilder(t, 0).compute(1.5).collective(CollectiveOp::kBarrier, 0);
  const ReplayResult r = replay(t, unit_config());
  // Single-rank collectives cost nothing.
  EXPECT_DOUBLE_EQ(r.makespan, 1.5);
}

TEST(Replay, RankWithNoEventsIdlesToMakespan) {
  Trace t(2);
  TraceBuilder(t, 1).compute(3.0);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(0, RankState::kIdle), 3.0);
}

TEST(Replay, ZeroByteMessageCostsOnlyLatency) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 0);
  TraceBuilder(t, 1).recv(0, 0, 0);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);  // pure latency arrival
}

TEST(Replay, EagerThresholdBoundaryIsInclusive) {
  // Exactly at the threshold -> eager (sender pays only latency).
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 100).compute(0.1);
  TraceBuilder(t, 1).compute(50.0).recv(0, 0, 100);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_DOUBLE_EQ(r.timeline.state_time(0, RankState::kSend), 1.0);
  EXPECT_DOUBLE_EQ(r.makespan, 50.0);  // message long arrived
}

TEST(Replay, JustAboveThresholdIsRendezvous) {
  Trace t(2);
  TraceBuilder(t, 0).send(1, 0, 101).compute(0.1);
  TraceBuilder(t, 1).compute(50.0).recv(0, 0, 101);
  const ReplayResult r = replay(t, unit_config());
  // Sender blocks until the late receiver completes the rendezvous.
  EXPECT_GT(r.timeline.state_time(0, RankState::kSend), 50.0);
}

TEST(Replay, ZeroDurationComputeIsFree) {
  Trace t(1);
  TraceBuilder(t, 0).compute(0.0).compute(1.0);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
}

TEST(Replay, CollectiveScaleStretchesCollectives) {
  Trace t(2);
  TraceBuilder(t, 0).collective(CollectiveOp::kBarrier, 0);
  TraceBuilder(t, 1).collective(CollectiveOp::kBarrier, 0);
  ReplayConfig config = unit_config();
  config.platform.collective_scale = 3.0;
  const ReplayResult r = replay(t, config);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);  // 1 stage * latency * 3
}

TEST(Replay, ManyOutstandingRequestsResolve) {
  // One rank posts 32 irecvs up front, peers send in arbitrary order.
  constexpr Rank kPeers = 8;
  Trace t(kPeers + 1);
  {
    TraceBuilder b(t, 0);
    for (Rank p = 1; p <= kPeers; ++p)
      for (std::int32_t k = 0; k < 4; ++k)
        b.irecv(p, k, 64, (p - 1) * 4 + k);
    b.waitall();
  }
  for (Rank p = 1; p <= kPeers; ++p) {
    TraceBuilder b(t, p);
    b.compute(0.01 * p);
    for (std::int32_t k = 3; k >= 0; --k) b.send(0, k, 64);
  }
  const ReplayResult r = replay(t, unit_config());
  EXPECT_EQ(r.point_to_point_messages, 32u);
  EXPECT_NO_THROW(validate_timeline(r.timeline));
}

TEST(Replay, InvalidTraceRejectedUpFront) {
  Trace t(2);
  TraceBuilder(t, 0).send(0, 0, 10);  // self-send
  EXPECT_THROW(replay(t, unit_config()), Error);
}

TEST(Replay, RelativeSpeedScalesComputeOnly) {
  Trace t(2);
  TraceBuilder(t, 0).compute(2.0).send(1, 0, 100);
  TraceBuilder(t, 1).compute(1.0).recv(0, 0, 100);
  ReplayConfig config = unit_config();
  config.relative_speed = {2.0, 0.5};  // rank 0 twice as fast, rank 1 half
  const ReplayResult r = replay(t, config);
  EXPECT_DOUBLE_EQ(r.compute_time[0], 1.0);
  EXPECT_DOUBLE_EQ(r.compute_time[1], 2.0);
  // Rank 0 sends at t=1 (arrival 3); rank 1 posts recv at t=2 -> done 3.
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
}

TEST(Replay, RelativeSpeedValidation) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0);
  TraceBuilder(t, 1).compute(1.0);
  ReplayConfig config = unit_config();
  config.relative_speed = {1.0};  // wrong rank count
  EXPECT_THROW(replay(t, config), Error);
  config.relative_speed = {1.0, 0.0};
  EXPECT_THROW(replay(t, config), Error);
}

TEST(Replay, IterationLabelsLandInTimeline) {
  Trace t(1);
  TraceBuilder(t, 0)
      .compute(0.5)  // prologue: iteration -1
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(1.0)
      .marker(MarkerKind::kIterationEnd, 0)
      .marker(MarkerKind::kIterationBegin, 1)
      .compute(2.0)
      .marker(MarkerKind::kIterationEnd, 1);
  const ReplayResult r = replay(t, unit_config());
  const auto lane = r.timeline.intervals(0);
  ASSERT_EQ(lane.size(), 3u);
  // Prologue compute is unlabelled.
  EXPECT_EQ(lane[0].iteration, -1);
  EXPECT_DOUBLE_EQ(lane[0].duration(), 0.5);
  EXPECT_EQ(lane[1].iteration, 0);
  EXPECT_DOUBLE_EQ(lane[1].duration(), 1.0);
  EXPECT_EQ(lane[2].iteration, 1);
  EXPECT_DOUBLE_EQ(lane[2].duration(), 2.0);
}

TEST(Replay, BlockedIntervalKeepsBlockStartIteration) {
  Trace t(2);
  TraceBuilder(t, 0)
      .marker(MarkerKind::kIterationBegin, 0)
      .recv(1, 0, 10)
      .marker(MarkerKind::kIterationEnd, 0);
  TraceBuilder(t, 1)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(5.0)
      .send(0, 0, 10)
      .marker(MarkerKind::kIterationEnd, 0);
  const ReplayResult r = replay(t, unit_config());
  const auto lane = r.timeline.intervals(0);
  ASSERT_FALSE(lane.empty());
  EXPECT_EQ(lane.front().state, RankState::kRecv);
  EXPECT_EQ(lane.front().iteration, 0);
}

TEST(Replay, LongDependencyChainResolves) {
  // A relay: 0 -> 1 -> 2 -> 3, each forwarding after receipt.
  Trace t(4);
  TraceBuilder(t, 0).compute(1.0).send(1, 0, 100);
  TraceBuilder(t, 1).recv(0, 0, 100).send(2, 0, 100);
  TraceBuilder(t, 2).recv(1, 0, 100).send(3, 0, 100);
  TraceBuilder(t, 3).recv(2, 0, 100);
  const ReplayResult r = replay(t, unit_config());
  // Each hop adds 2 s (latency + transfer): 1 + 2 + 2 + 2 = 7.
  EXPECT_DOUBLE_EQ(r.makespan, 7.0);
}

// The sweep classifies these two texts as timeouts and quarantine records
// carry them, so both stay exactly as written.
TEST(Replay, EventLimitAndWatchdogKeepTheirErrorTexts) {
  Trace t(2);
  for (int i = 0; i < 4; ++i) {
    TraceBuilder(t, 0).compute(1.0).send(1, i, 100);
    TraceBuilder(t, 1).recv(0, i, 100).compute(1.0);
  }
  ReplayConfig limited = unit_config();
  limited.max_simulated_events = 3;
  try {
    replay(t, limited);
    FAIL() << "event limit never tripped";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "simulated event limit exceeded (limit=3, simulated "
              "time=1.000000s)");
  }
  ReplayConfig watched = unit_config();
  watched.max_wall_seconds = 1e-9;
  try {
    replay(t, watched);
    FAIL() << "watchdog never expired";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "wall-clock watchdog expired (limit=1e-09s)");
  }
}

// The replay merges and pads each rank's lane as it streams it; these
// cases pin that behaviour on the replayed timeline and on the sums of a
// summary replay, which keeps no timeline.

ReplayResult summary_replay(const Trace& t) {
  return replay(t, ReplayProgram(t), unit_config(), nullptr,
                ReplayOutput::kSummary);
}

TEST(ReplayLanes, PadsIdleToMakespan) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0, 0).compute(1.0, 1);
  TraceBuilder(t, 1).compute(2.5);
  const ReplayResult r = replay(t, unit_config());
  EXPECT_DOUBLE_EQ(r.timeline.state_time(0, RankState::kIdle), 0.5);
  EXPECT_DOUBLE_EQ(r.timeline.state_time(1, RankState::kIdle), 0.0);
  EXPECT_EQ(r.timeline.intervals(0).back().end, r.makespan);
  EXPECT_NO_THROW(validate_timeline(r.timeline));
  const ReplayResult summary = summary_replay(t);
  EXPECT_EQ(summary.makespan, 2.5);
  EXPECT_EQ(summary.communication_time, (std::vector<Seconds>{0.5, 0.0}));
  EXPECT_EQ(summary.compute_time, r.compute_time);
}

TEST(ReplayLanes, MergesTouchingSameStateIntervals) {
  Trace t(1);
  TraceBuilder(t, 0).compute(1.0, 0).compute(1.0, 0).compute(1.0, 1);
  const ReplayResult r = replay(t, unit_config());
  ASSERT_EQ(r.timeline.intervals(0).size(), 2u);  // different phase
  EXPECT_DOUBLE_EQ(r.timeline.intervals(0)[0].end, 2.0);
  EXPECT_EQ(summary_replay(t).compute_time, r.compute_time);
}

TEST(ReplayLanes, KeepsIterationBoundaries) {
  Trace t(1);
  TraceBuilder(t, 0)
      .marker(MarkerKind::kIterationBegin, 0)
      .compute(1.0)
      .marker(MarkerKind::kIterationEnd, 0)
      .marker(MarkerKind::kIterationBegin, 1)
      .compute(1.0);  // same state and phase
  const ReplayResult r = replay(t, unit_config());
  ASSERT_EQ(r.timeline.intervals(0).size(), 2u);  // different iteration
  EXPECT_EQ(r.timeline.intervals(0)[1].iteration, 1);
}

}  // namespace
}  // namespace pals
