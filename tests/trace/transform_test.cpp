#include "trace/transform.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace pals {
namespace {

Trace base_trace() {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0).send(1, 0, 10).compute(2.0, 1);
  TraceBuilder(t, 1).recv(0, 0, 10).compute(4.0, 0);
  return t;
}

TEST(ScaleCompute, ScalesPerRank) {
  const std::vector<double> factors{2.0, 0.5};
  const Trace scaled = scale_compute(base_trace(), factors);
  EXPECT_DOUBLE_EQ(scaled.computation_time(0), 6.0);  // (1 + 2) * 2
  EXPECT_DOUBLE_EQ(scaled.computation_time(1), 2.0);  // 4 * 0.5
}

TEST(ScaleCompute, LeavesCommunicationUntouched) {
  const std::vector<double> factors{3.0, 3.0};
  const Trace scaled = scale_compute(base_trace(), factors);
  const auto* send = std::get_if<SendEvent>(&scaled.events(0)[1]);
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->bytes, 10u);
}

TEST(ScaleCompute, IdentityFactorIsNoOp) {
  const std::vector<double> factors{1.0, 1.0};
  EXPECT_EQ(scale_compute(base_trace(), factors), base_trace());
}

TEST(ScaleCompute, RejectsWrongFactorCount) {
  const std::vector<double> factors{1.0};
  EXPECT_THROW(scale_compute(base_trace(), factors), Error);
}

TEST(ScaleCompute, RejectsNonPositiveFactor) {
  EXPECT_THROW(scale_compute(base_trace(), std::vector<double>{1.0, 0.0}),
               Error);
  EXPECT_THROW(scale_compute(base_trace(), std::vector<double>{-1.0, 1.0}),
               Error);
}

TEST(ScaleComputeUniform, AppliesEverywhere) {
  const Trace scaled = scale_compute_uniform(base_trace(), 10.0);
  EXPECT_DOUBLE_EQ(scaled.computation_time(0), 30.0);
  EXPECT_DOUBLE_EQ(scaled.computation_time(1), 40.0);
}

Trace marked_trace(int iterations) {
  Trace t(2);
  for (Rank r = 0; r < 2; ++r) {
    TraceBuilder b(t, r);
    b.compute(0.5);  // prologue outside any iteration
    for (int i = 0; i < iterations; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute((r + 1.0) * (i + 1.0))
          .collective(CollectiveOp::kBarrier, 0)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  return t;
}

TEST(IterationComputationTimes, PerIterationPerRank) {
  const Trace t = marked_trace(3);
  const auto times = iteration_computation_times(t);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0][0], 1.0);
  EXPECT_DOUBLE_EQ(times[0][1], 2.0);
  EXPECT_DOUBLE_EQ(times[2][0], 3.0);
  EXPECT_DOUBLE_EQ(times[2][1], 6.0);
}

TEST(IterationComputationTimes, IgnoresPrologue) {
  const Trace t = marked_trace(1);
  const auto times = iteration_computation_times(t);
  EXPECT_DOUBLE_EQ(times[0][0], 1.0);  // prologue 0.5 excluded
}

TEST(IterationComputationTimes, RejectsUnmarkedTrace) {
  EXPECT_THROW(iteration_computation_times(base_trace()), Error);
}

TEST(ScaleCompute, ComposesMultiplicatively) {
  const std::vector<double> f1{2.0, 3.0};
  const std::vector<double> f2{0.5, 1.0 / 3.0};
  const Trace round_trip =
      scale_compute(scale_compute(base_trace(), f1), f2);
  EXPECT_NEAR(round_trip.computation_time(0),
              base_trace().computation_time(0), 1e-12);
  EXPECT_NEAR(round_trip.computation_time(1),
              base_trace().computation_time(1), 1e-12);
}

}  // namespace
}  // namespace pals
