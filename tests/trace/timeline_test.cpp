#include "trace/timeline.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "reference.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

Timeline small_timeline() {
  Timeline tl(2);
  tl.append(0, {0.0, 1.0, RankState::kCompute, 0});
  tl.append(0, {1.0, 1.5, RankState::kRecv, -1});
  tl.append(0, {1.5, 2.0, RankState::kCompute, 1});
  tl.append(1, {0.0, 2.5, RankState::kCompute, -1});
  return tl;
}

TEST(Timeline, AppendEnforcesContiguity) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1});
  EXPECT_THROW(tl.append(0, {2.0, 3.0, RankState::kCompute, -1}), Error);
  EXPECT_THROW(tl.append(0, {0.5, 2.0, RankState::kCompute, -1}), Error);
}

TEST(Timeline, AppendRejectsNegativeSpan) {
  Timeline tl(1);
  EXPECT_THROW(tl.append(0, {1.0, 0.5, RankState::kCompute, -1}), Error);
}

TEST(Timeline, AppendRejectsNonFiniteBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Timeline tl(1);
  EXPECT_THROW(tl.append(0, {nan, 1.0, RankState::kCompute, -1}), Error);
  EXPECT_THROW(tl.append(0, {0.0, nan, RankState::kCompute, -1}), Error);
  EXPECT_THROW(tl.append(0, {0.0, inf, RankState::kCompute, -1}), Error);
  EXPECT_THROW(tl.append(0, {-inf, 1.0, RankState::kCompute, -1}), Error);
  // NaN compares false against everything, so without an explicit check
  // these would sail past the ordering assertions and poison makespan().
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1});
  EXPECT_DOUBLE_EQ(tl.makespan(), 1.0);
}

TEST(Timeline, ZeroWidthIntervalsAreDropped) {
  Timeline tl(1);
  tl.append(0, {0.0, 0.0, RankState::kWait, -1});
  EXPECT_TRUE(tl.intervals(0).empty());
}

TEST(Timeline, MakespanIsLongestLane) {
  EXPECT_DOUBLE_EQ(small_timeline().makespan(), 2.5);
}

TEST(Timeline, StateTimeAggregates) {
  const Timeline tl = small_timeline();
  EXPECT_DOUBLE_EQ(tl.state_time(0, RankState::kCompute), 1.5);
  EXPECT_DOUBLE_EQ(tl.state_time(0, RankState::kRecv), 0.5);
  EXPECT_DOUBLE_EQ(tl.state_time(1, RankState::kCompute), 2.5);
}

TEST(Timeline, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(validate_timeline(small_timeline()));
}

TEST(Timeline, IoRoundTrip) {
  Timeline tl = small_timeline();
  tl.append(0, {2.0, 2.5, RankState::kIdle, -1});
  std::stringstream buffer;
  write_timeline(tl, buffer);
  const Timeline restored = read_timeline(buffer);
  EXPECT_EQ(restored, tl);
}

TEST(Timeline, IoRejectsBadMagic) {
  std::stringstream in("nope\nranks 1\n");
  EXPECT_THROW(read_timeline(in), Error);
}

TEST(Timeline, IoRejectsTruncated) {
  std::stringstream in("# pals-timeline v1\n");
  EXPECT_THROW(read_timeline(in), Error);
}

TEST(Timeline, IoRoundTripsIterationLabels) {
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, 2, 3});
  tl.append(0, {1.0, 2.0, RankState::kWait, -1, 3});
  tl.append(0, {2.0, 3.0, RankState::kIdle, -1, -1});
  std::stringstream buffer;
  write_timeline(tl, buffer);
  const Timeline restored = read_timeline(buffer);
  EXPECT_EQ(restored, tl);
}

TEST(RankStateNames, RoundTrip) {
  for (RankState s : {RankState::kCompute, RankState::kSend, RankState::kRecv,
                      RankState::kWait, RankState::kCollective,
                      RankState::kIdle}) {
    EXPECT_EQ(parse_rank_state(to_string(s)), s);
  }
  EXPECT_THROW(parse_rank_state("busy"), Error);
}

}  // namespace
}  // namespace pals
