#include "workloads/imbalance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace pals {
namespace {

/// Weights rising linearly from `min_ratio` (rank 0) to 1 (last rank).
std::vector<double> ramp(std::size_t n, double min_ratio) {
  std::vector<double> w(n);
  for (std::size_t k = 0; k < n; ++k)
    w[k] = min_ratio + (1.0 - min_ratio) * static_cast<double>(k) /
                           static_cast<double>(n - 1);
  return w;
}

TEST(Shapes, UniformNoiseWithinBoundsAndPinned) {
  Rng rng(1);
  const auto w = shape_uniform_noise(64, 0.3, rng);
  ASSERT_EQ(w.size(), 64u);
  EXPECT_DOUBLE_EQ(*std::max_element(w.begin(), w.end()), 1.0);
  for (double x : w) {
    EXPECT_GT(x, 0.69);
    EXPECT_LE(x, 1.0);
  }
}

TEST(Shapes, GeometricContainsFullDecayRange) {
  const auto w = shape_geometric(16, 0.8);
  EXPECT_DOUBLE_EQ(*std::max_element(w.begin(), w.end()), 1.0);
  const double min = *std::min_element(w.begin(), w.end());
  EXPECT_NEAR(min, std::pow(0.8, 15), 1e-12);
}

TEST(Shapes, GeometricInterleavesHeavyAndLight) {
  const auto w = shape_geometric(8, 0.5);
  // The heaviest weight sits at an even position, the lightest at odd.
  const auto max_pos = std::distance(
      w.begin(), std::max_element(w.begin(), w.end()));
  const auto min_pos = std::distance(
      w.begin(), std::min_element(w.begin(), w.end()));
  EXPECT_EQ(max_pos % 2, 0);
  EXPECT_EQ(min_pos % 2, 1);
}

TEST(Shapes, ZonesHaveTwoLevels) {
  Rng rng(2);
  const auto w = shape_zones(32, 2, 0.3, 0.0, rng);
  int heavy = 0;
  for (double x : w) {
    if (x > 0.9) ++heavy;
    else EXPECT_NEAR(x, 0.3, 1e-9);
  }
  EXPECT_EQ(heavy, 2);
}

TEST(Shapes, RejectBadParameters) {
  Rng rng(1);
  EXPECT_THROW(shape_uniform_noise(0, 0.1, rng), Error);
  EXPECT_THROW(shape_uniform_noise(4, 1.0, rng), Error);
  EXPECT_THROW(shape_geometric(4, 1.0), Error);
  EXPECT_THROW(shape_zones(4, 0, 0.5, 0.0, rng), Error);
  EXPECT_THROW(shape_zones(4, 5, 0.5, 0.0, rng), Error);
}

class CalibrationTest : public ::testing::TestWithParam<double> {};

TEST_P(CalibrationTest, HitsTargetExactly) {
  Rng rng(7);
  const double target = GetParam();
  for (const auto& shape :
       {shape_uniform_noise(64, 0.4, rng), ramp(64, 0.1),
        shape_geometric(64, 0.9)}) {
    const auto calibrated = calibrate_to_lb(shape, target);
    EXPECT_NEAR(weights_load_balance(calibrated), target, 1e-6);
    // max weight preserved at 1.
    EXPECT_NEAR(*std::max_element(calibrated.begin(), calibrated.end()), 1.0,
                1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, CalibrationTest,
                         ::testing::Values(0.35, 0.44, 0.50, 0.65, 0.76, 0.79,
                                           0.90, 0.94, 0.978));

TEST(Calibration, PreservesRankOrdering) {
  const auto shape = ramp(32, 0.3);
  const auto calibrated = calibrate_to_lb(shape, 0.5);
  EXPECT_TRUE(std::is_sorted(calibrated.begin(), calibrated.end()));
}

TEST(Calibration, TargetOneIsAllOnes) {
  const auto calibrated = calibrate_to_lb(ramp(8, 0.5), 1.0);
  for (double x : calibrated) EXPECT_NEAR(x, 1.0, 1e-4);
}

TEST(Calibration, RejectsUnreachableTarget) {
  // A 4-rank linear shape cannot go below LB = 1/4 (single max survivor).
  const auto shape = ramp(4, 0.9);
  EXPECT_THROW(calibrate_to_lb(shape, 0.2), Error);
}

TEST(Calibration, RejectsBadInput) {
  EXPECT_THROW(calibrate_to_lb({}, 0.5), Error);
  const std::vector<double> bad{0.5, -0.1};
  EXPECT_THROW(calibrate_to_lb(bad, 0.5), Error);
  const std::vector<double> w{0.5, 1.0};
  EXPECT_THROW(calibrate_to_lb(w, 0.0), Error);
  EXPECT_THROW(calibrate_to_lb(w, 1.5), Error);
}

TEST(WeightsLoadBalance, MatchesFormula) {
  const std::vector<double> w{0.5, 1.0};
  EXPECT_DOUBLE_EQ(weights_load_balance(w), 0.75);
}

}  // namespace
}  // namespace pals
