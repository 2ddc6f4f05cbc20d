#include "network/platform.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace pals {
namespace {

PlatformModel unit_platform() {
  PlatformModel p;
  p.latency = 1.0;
  p.bandwidth = 100.0;  // bytes/s
  return p;
}

TEST(PlatformModel, MessageTimeIsLatencyPlusTransfer) {
  const PlatformModel p = unit_platform();
  EXPECT_DOUBLE_EQ(p.transfer_time(200), 2.0);
  EXPECT_DOUBLE_EQ(p.message_time(200), 3.0);
  EXPECT_DOUBLE_EQ(p.message_time(0), 1.0);
}

TEST(PlatformModel, ValidateRejectsBadParameters) {
  PlatformModel p;
  p.latency = -1.0;
  EXPECT_THROW(p.validate(), Error);
  p = PlatformModel{};
  p.bandwidth = 0.0;
  EXPECT_THROW(p.validate(), Error);
  p = PlatformModel{};
  p.buses = -1;
  EXPECT_THROW(p.validate(), Error);
  p = PlatformModel{};
  p.collective_scale = 0.0;
  EXPECT_THROW(p.validate(), Error);
}

TEST(CollectiveCost, BarrierIsLatencyBound) {
  const PlatformModel p = unit_platform();
  // 8 ranks -> 3 dissemination stages of pure latency.
  EXPECT_DOUBLE_EQ(collective_cost(p, CollectiveOp::kBarrier, 8, 0), 3.0);
}

TEST(CollectiveCost, SingleRankIsFree) {
  const PlatformModel p = unit_platform();
  EXPECT_DOUBLE_EQ(collective_cost(p, CollectiveOp::kAllreduce, 1, 100), 0.0);
}

TEST(CollectiveCost, TreeCollectivesScaleWithLogP) {
  const PlatformModel p = unit_platform();
  const Seconds c8 = collective_cost(p, CollectiveOp::kBcast, 8, 100);
  const Seconds c64 = collective_cost(p, CollectiveOp::kBcast, 64, 100);
  EXPECT_DOUBLE_EQ(c64 / c8, 2.0);  // log2 64 / log2 8
}

TEST(CollectiveCost, AllreduceIsTwiceBcast) {
  const PlatformModel p = unit_platform();
  EXPECT_DOUBLE_EQ(collective_cost(p, CollectiveOp::kAllreduce, 16, 100),
                   2.0 * collective_cost(p, CollectiveOp::kBcast, 16, 100));
}

TEST(CollectiveCost, AlltoallScalesLinearlyWithP) {
  const PlatformModel p = unit_platform();
  const Seconds c4 = collective_cost(p, CollectiveOp::kAlltoall, 4, 100);
  const Seconds c8 = collective_cost(p, CollectiveOp::kAlltoall, 8, 100);
  EXPECT_DOUBLE_EQ(c4, 3.0 * p.message_time(100));
  EXPECT_DOUBLE_EQ(c8, 7.0 * p.message_time(100));
}

TEST(CollectiveCost, NonPowerOfTwoRoundsStagesUp) {
  const PlatformModel p = unit_platform();
  // 5 ranks -> ceil(log2 5) = 3 stages.
  EXPECT_DOUBLE_EQ(collective_cost(p, CollectiveOp::kBarrier, 5, 0), 3.0);
}

TEST(CollectiveCost, ScaleMultiplies) {
  PlatformModel p = unit_platform();
  p.collective_scale = 2.5;
  EXPECT_DOUBLE_EQ(collective_cost(p, CollectiveOp::kBarrier, 8, 0), 7.5);
}

TEST(CollectiveAlgo, OverrideChangesCost) {
  PlatformModel p = unit_platform();
  const Seconds tree_default =
      collective_cost(p, CollectiveOp::kAllreduce, 8, 100);  // 2*3*msg
  p.collective_algorithms[CollectiveOp::kAllreduce] = CollectiveAlgo::kRing;
  const Seconds ring = collective_cost(p, CollectiveOp::kAllreduce, 8, 100);
  EXPECT_DOUBLE_EQ(tree_default, 6.0 * p.message_time(100));
  EXPECT_DOUBLE_EQ(ring, 7.0 * p.message_time(100));
}

TEST(CollectiveAlgo, TreeAlltoallIsLogarithmic) {
  PlatformModel p = unit_platform();
  p.collective_algorithms[CollectiveOp::kAlltoall] = CollectiveAlgo::kTree;
  // Bruck-style alltoall: log2(P) stages instead of P-1.
  EXPECT_DOUBLE_EQ(collective_cost(p, CollectiveOp::kAlltoall, 8, 100),
                   3.0 * p.message_time(100));
}

TEST(CollectiveAlgo, OverrideOnlyAffectsListedOp) {
  PlatformModel p = unit_platform();
  p.collective_algorithms[CollectiveOp::kAllreduce] = CollectiveAlgo::kRing;
  EXPECT_DOUBLE_EQ(collective_cost(p, CollectiveOp::kBcast, 8, 100),
                   3.0 * p.message_time(100));  // still tree
}

TEST(CollectiveAlgo, BarrierStaysLatencyBound) {
  PlatformModel p = unit_platform();
  p.collective_algorithms[CollectiveOp::kBarrier] = CollectiveAlgo::kRing;
  EXPECT_DOUBLE_EQ(collective_cost(p, CollectiveOp::kBarrier, 8, 0), 7.0);
}

TEST(BusAllocator, UnlimitedNeverDelays) {
  BusAllocator bus(0);
  EXPECT_DOUBLE_EQ(bus.reserve(5.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(bus.reserve(5.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(bus.contention_delay(), 0.0);
}

TEST(BusAllocator, SingleBusSerializes) {
  BusAllocator bus(1);
  EXPECT_DOUBLE_EQ(bus.reserve(0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(bus.reserve(0.5, 2.0), 2.0);  // waits for the first
  EXPECT_DOUBLE_EQ(bus.reserve(5.0, 1.0), 5.0);  // idle gap, no wait
  EXPECT_DOUBLE_EQ(bus.contention_delay(), 1.5);
}

TEST(BusAllocator, TwoBusesOverlapTwoTransfers) {
  BusAllocator bus(2);
  EXPECT_DOUBLE_EQ(bus.reserve(0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(bus.reserve(0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(bus.reserve(1.0, 1.0), 4.0);  // both busy until 4
}

TEST(BusAllocator, CountsReservations) {
  BusAllocator bus(1);
  bus.reserve(0.0, 1.0);
  bus.reserve(0.0, 1.0);
  EXPECT_EQ(bus.reservations(), 2u);
}

TEST(BusAllocator, RejectsNegativeDuration) {
  BusAllocator bus(1);
  EXPECT_THROW(bus.reserve(0.0, -1.0), Error);
}

}  // namespace
}  // namespace pals
