#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace pals {
namespace {

Trace two_rank_ping() {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0).send(1, 0, 100).recv(1, 1, 100);
  TraceBuilder(t, 1).compute(2.0).recv(0, 0, 100).send(0, 1, 100);
  return t;
}

TEST(Trace, ConstructionAndRankCount) {
  const Trace t(4);
  EXPECT_EQ(t.n_ranks(), 4);
  EXPECT_EQ(t.total_events(), 0u);
  EXPECT_THROW(Trace(0), Error);
}

TEST(Trace, AppendAndQueryEvents) {
  Trace t = two_rank_ping();
  EXPECT_EQ(t.events(0).size(), 3u);
  EXPECT_EQ(t.events(1).size(), 3u);
  EXPECT_EQ(t.total_events(), 6u);
  EXPECT_THROW(t.events(2), Error);
  EXPECT_THROW(t.events(-1), Error);
}

TEST(Trace, ComputationTimesSumBursts) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0).compute(0.5);
  TraceBuilder(t, 1).compute(2.0);
  EXPECT_DOUBLE_EQ(t.computation_time(0), 1.5);
  EXPECT_DOUBLE_EQ(t.computation_time(1), 2.0);
  const auto all = t.computation_times();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_DOUBLE_EQ(all[0], 1.5);
}

TEST(Trace, PhaseScopedComputationTime) {
  Trace t(1);
  TraceBuilder(t, 0).compute(1.0, 0).compute(2.0, 1).compute(4.0, 0).compute(
      8.0);
  EXPECT_DOUBLE_EQ(t.computation_time(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.computation_time(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(t.computation_time(0, 7), 0.0);
  EXPECT_DOUBLE_EQ(t.computation_time(0), 15.0);
}

TEST(Trace, PhasesListsDistinctLabels) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0, 2).compute(1.0, 0);
  TraceBuilder(t, 1).compute(1.0, 2);
  const auto phases = t.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0], 0);
  EXPECT_EQ(phases[1], 2);
}

TEST(Trace, IterationCountFromMarkers) {
  Trace t(1);
  TraceBuilder b(t, 0);
  for (int i = 0; i < 3; ++i) {
    b.marker(MarkerKind::kIterationBegin, i).compute(1.0).marker(
        MarkerKind::kIterationEnd, i);
  }
  EXPECT_EQ(t.iteration_count(), 3u);
}

TEST(TraceValidate, AcceptsWellFormed) {
  EXPECT_NO_THROW(two_rank_ping().validate());
}

TEST(TraceValidate, RejectsPeerOutOfRange) {
  Trace t(2);
  TraceBuilder(t, 0).send(5, 0, 10);
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceValidate, RejectsSelfMessage) {
  Trace t(2);
  TraceBuilder(t, 0).send(0, 0, 10);
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceValidate, RejectsDuplicateOpenRequest) {
  Trace t(2);
  TraceBuilder(t, 0).isend(1, 0, 10, 0).isend(1, 0, 10, 0);
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceValidate, RejectsWaitOnUnknownRequest) {
  Trace t(2);
  TraceBuilder(t, 0).wait(3);
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceValidate, RejectsLeakedRequest) {
  Trace t(2);
  TraceBuilder(t, 0).isend(1, 0, 10, 0);  // never waited
  TraceBuilder(t, 1).recv(0, 0, 10);
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceValidate, AllowsRequestReuseAfterWait) {
  Trace t(2);
  TraceBuilder(t, 0)
      .isend(1, 0, 10, 0)
      .wait(0)
      .isend(1, 0, 10, 0)
      .wait(0);
  TraceBuilder(t, 1).recv(0, 0, 10).recv(0, 0, 10);
  EXPECT_NO_THROW(t.validate());
}

TEST(TraceValidate, WaitallClosesAllRequests) {
  Trace t(2);
  TraceBuilder(t, 0).isend(1, 0, 10, 0).irecv(1, 1, 10, 1).waitall();
  TraceBuilder(t, 1).recv(0, 0, 10).send(0, 1, 10);
  EXPECT_NO_THROW(t.validate());
}

TEST(TraceValidate, RejectsNegativeComputeDuration) {
  Trace t(1);
  t.append(0, ComputeEvent{-1.0, -1});
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceValidate, RejectsMismatchedCollectiveSequences) {
  Trace t(2);
  TraceBuilder(t, 0).collective(CollectiveOp::kAllreduce, 8);
  TraceBuilder(t, 1).collective(CollectiveOp::kBarrier, 0);
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceValidate, RejectsMissingCollective) {
  Trace t(2);
  TraceBuilder(t, 0).collective(CollectiveOp::kAllreduce, 8);
  TraceBuilder(t, 1).compute(1.0);
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceValidate, RejectsExtraCollective) {
  Trace t(2);
  TraceBuilder(t, 0).collective(CollectiveOp::kBarrier, 0);
  TraceBuilder(t, 1)
      .collective(CollectiveOp::kBarrier, 0)
      .collective(CollectiveOp::kBarrier, 0);
  EXPECT_THROW(t.validate(), Error);
}

TEST(TraceValidate, RejectsCollectiveRootOutOfRange) {
  Trace t(2);
  TraceBuilder(t, 0).collective(CollectiveOp::kBcast, 8, 7);
  TraceBuilder(t, 1).collective(CollectiveOp::kBcast, 8, 7);
  EXPECT_THROW(t.validate(), Error);
}

TEST(EventToString, RendersAllKinds) {
  EXPECT_EQ(to_string(Event{ComputeEvent{1.5, -1}}), "compute 1.5");
  EXPECT_EQ(to_string(Event{ComputeEvent{1.5, 2}}), "compute 1.5 phase=2");
  EXPECT_EQ(to_string(Event{SendEvent{1, 7, 64}}), "send 1 7 64");
  EXPECT_EQ(to_string(Event{IrecvEvent{0, 3, 8, 5}}), "irecv 0 3 8 5");
  EXPECT_EQ(to_string(Event{WaitEvent{5}}), "wait 5");
  EXPECT_EQ(to_string(Event{WaitAllEvent{}}), "waitall");
  EXPECT_EQ(to_string(Event{CollectiveEvent{CollectiveOp::kAllreduce, 8, 0}}),
            "coll allreduce 8 0");
  EXPECT_EQ(to_string(Event{MarkerEvent{MarkerKind::kIterationBegin, 3}}),
            "marker iter_begin 3");
}

TEST(CollectiveNames, RoundTrip) {
  for (CollectiveOp op :
       {CollectiveOp::kBarrier, CollectiveOp::kBcast, CollectiveOp::kReduce,
        CollectiveOp::kAllreduce, CollectiveOp::kGather,
        CollectiveOp::kAllgather, CollectiveOp::kScatter,
        CollectiveOp::kAlltoall, CollectiveOp::kReduceScatter}) {
    EXPECT_EQ(parse_collective(to_string(op)), op);
  }
  EXPECT_THROW(parse_collective("alltoallv"), Error);
}

TEST(MarkerNames, RoundTrip) {
  for (MarkerKind kind :
       {MarkerKind::kIterationBegin, MarkerKind::kIterationEnd,
        MarkerKind::kPhaseBegin, MarkerKind::kPhaseEnd}) {
    EXPECT_EQ(parse_marker(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_marker("loop"), Error);
}

}  // namespace
}  // namespace pals
