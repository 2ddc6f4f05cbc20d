// Property sweeps over every gear-set size and random frequencies.
#include <gtest/gtest.h>

#include "power/gearset.hpp"
#include "util/rng.hpp"

namespace pals {
namespace {

class UniformSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(UniformSetProperty, GearsSortedWithinRangeAndEvenlySpaced) {
  const GearSet set = paper_uniform(GetParam());
  const auto gears = set.gears();
  ASSERT_EQ(gears.size(), static_cast<std::size_t>(GetParam()));
  const double step =
      (kPaperFmaxGhz - kPaperFminGhz) / (GetParam() - 1);
  for (std::size_t i = 0; i < gears.size(); ++i) {
    EXPECT_NEAR(gears[i].frequency_ghz,
                kPaperFminGhz + step * static_cast<double>(i), 1e-9);
    if (i > 0) {
      EXPECT_GT(gears[i].frequency_ghz, gears[i - 1].frequency_ghz);
    }
  }
}

TEST_P(UniformSetProperty, VoltageIsMonotoneInFrequency) {
  const GearSet set = paper_uniform(GetParam());
  const auto gears = set.gears();
  for (std::size_t i = 1; i < gears.size(); ++i)
    EXPECT_GT(gears[i].voltage_v, gears[i - 1].voltage_v);
}

TEST_P(UniformSetProperty, SnapUpIsIdempotentAndNeverBelowInput) {
  const GearSet set = paper_uniform(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    const double f = rng.uniform(0.05, 3.0);
    const double snapped = set.snap_up(f);
    EXPECT_EQ(set.snap_up(snapped), snapped) << f;
    if (f <= set.fmax()) {
      EXPECT_GE(snapped, std::min(f, set.fmax()) - 1e-12) << f;
    }
    EXPECT_GE(snapped, set.fmin() - 1e-12);
    EXPECT_LE(snapped, set.fmax() + 1e-12);
    // Nearest never exceeds up.
    EXPECT_LE(set.snap_nearest(f), snapped + 1e-12) << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, UniformSetProperty,
                         ::testing::Range(2, 16));

class ExponentialSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExponentialSetProperty, GapsDoubleAndEndpointsAnchor) {
  const GearSet set = paper_exponential(GetParam());
  const auto gears = set.gears();
  ASSERT_EQ(gears.size(), static_cast<std::size_t>(GetParam()));
  EXPECT_NEAR(gears.front().frequency_ghz, kPaperFminGhz, 1e-9);
  EXPECT_NEAR(gears.back().frequency_ghz, kPaperFmaxGhz, 1e-9);
  for (std::size_t i = 0; i + 2 < gears.size(); ++i) {
    const double low = gears[i + 1].frequency_ghz - gears[i].frequency_ghz;
    const double high =
        gears[i + 2].frequency_ghz - gears[i + 1].frequency_ghz;
    EXPECT_NEAR(low / high, 2.0, 1e-6) << "gap " << i;
  }
}

TEST_P(ExponentialSetProperty, DenserNearFmaxThanUniform) {
  const int n = GetParam();
  const GearSet exp_set = paper_exponential(n);
  const GearSet uni_set = paper_uniform(n);
  // Count gears in the top third of the range.
  const double cutoff = kPaperFminGhz + 2.0 / 3.0 *
                        (kPaperFmaxGhz - kPaperFminGhz);
  const auto count_above = [&](const GearSet& set) {
    std::size_t count = 0;
    for (const Gear& g : set.gears())
      if (g.frequency_ghz >= cutoff) ++count;
    return count;
  };
  EXPECT_GE(count_above(exp_set), count_above(uni_set));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExponentialSetProperty,
                         ::testing::Range(3, 8));

}  // namespace
}  // namespace pals
