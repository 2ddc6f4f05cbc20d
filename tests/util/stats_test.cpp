#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace pals {
namespace {

TEST(Summarize, EmptySampleIsAllZero) {
  const StatsSummary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, BasicMoments) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const StatsSummary s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 10.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.11803, 1e-4);  // population stddev
}

TEST(MinMax, ThrowOnEmpty) {
  EXPECT_THROW(min_value({}), Error);
}

TEST(CoefficientOfVariation, ZeroMeanGivesZero) {
  const std::vector<double> v{-1.0, 1.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(v), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 7.0);
}

TEST(Percentile, RejectsBadInput) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile(v, -1.0), Error);
  EXPECT_THROW(percentile(v, 101.0), Error);
}

TEST(OnlineStats, MatchesBatchSummary) {
  const std::vector<double> v{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  OnlineStats acc;
  for (double x : v) acc.add(x);
  const StatsSummary s = summarize(v);
  EXPECT_EQ(acc.count(), s.count);
  EXPECT_DOUBLE_EQ(acc.mean(), s.mean);
  EXPECT_NEAR(acc.stddev(), s.stddev, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), s.min);
  EXPECT_DOUBLE_EQ(acc.max(), s.max);
}

TEST(OnlineStats, EmptyAccumulatorIsZero) {
  const OnlineStats acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

}  // namespace
}  // namespace pals
