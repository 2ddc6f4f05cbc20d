#include "power/gearset.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace pals {
namespace {

TEST(VoltageModel, PaperAnchorsReproduce) {
  const VoltageModel vm = VoltageModel::paper_default();
  EXPECT_NEAR(vm.voltage(0.8), 1.0, 1e-12);
  EXPECT_NEAR(vm.voltage(2.3), 1.5, 1e-12);
}

TEST(VoltageModel, PaperOverclockGearLiesOnTheLine) {
  // The paper's AVG discrete study adds (2.6 GHz, 1.6 V).
  const VoltageModel vm = VoltageModel::paper_default();
  EXPECT_NEAR(vm.voltage(2.6), 1.6, 1e-12);
}

TEST(VoltageModel, RejectsDegenerateAnchors) {
  EXPECT_THROW(VoltageModel(1.0, 1.0, 1.0, 2.0), Error);
}

TEST(VoltageModel, RejectsNonPositiveFrequency) {
  const VoltageModel vm = VoltageModel::paper_default();
  EXPECT_THROW(vm.voltage(0.0), Error);
  EXPECT_THROW(vm.voltage(-1.0), Error);
}

// Table 1 of the paper: the 6-gear evenly distributed set.
TEST(GearSet, Table1UniformSixGearSet) {
  const GearSet set = paper_uniform(6);
  ASSERT_EQ(set.size(), 6u);
  const double expected_f[] = {0.8, 1.1, 1.4, 1.7, 2.0, 2.3};
  const double expected_v[] = {1.0, 1.1, 1.2, 1.3, 1.4, 1.5};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(set.gears()[i].frequency_ghz, expected_f[i], 1e-9) << i;
    EXPECT_NEAR(set.gears()[i].voltage_v, expected_v[i], 1e-9) << i;
  }
}

// Table 2 of the paper: the 6-gear exponential set.
TEST(GearSet, Table2ExponentialSixGearSet) {
  const GearSet set = paper_exponential(6);
  ASSERT_EQ(set.size(), 6u);
  const double expected_f[] = {0.8, 1.57, 1.96, 2.15, 2.25, 2.3};
  const double expected_v[] = {1.0, 1.26, 1.39, 1.45, 1.48, 1.5};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(set.gears()[i].frequency_ghz, expected_f[i], 0.01) << i;
    EXPECT_NEAR(set.gears()[i].voltage_v, expected_v[i], 0.01) << i;
  }
}

TEST(GearSet, ExponentialGapsDoubleTowardsLowFrequencies) {
  const GearSet set = paper_exponential(5);
  const auto gears = set.gears();
  for (std::size_t i = 0; i + 2 < gears.size(); ++i) {
    const double low_gap = gears[i + 1].frequency_ghz - gears[i].frequency_ghz;
    const double high_gap =
        gears[i + 2].frequency_ghz - gears[i + 1].frequency_ghz;
    EXPECT_NEAR(low_gap / high_gap, 2.0, 1e-6);
  }
}

TEST(GearSet, UniformSetsSpanRangeInclusive) {
  for (int n = 2; n <= 15; ++n) {
    const GearSet set = paper_uniform(n);
    ASSERT_EQ(set.size(), static_cast<std::size_t>(n));
    EXPECT_NEAR(set.gears().front().frequency_ghz, 0.8, 1e-12);
    EXPECT_NEAR(set.gears().back().frequency_ghz, 2.3, 1e-12);
  }
}

TEST(GearSet, SnapUpPicksLowestAdmissibleGear) {
  const GearSet set = paper_uniform(6);
  EXPECT_NEAR(set.snap_up(1.0), 1.1, 1e-12);
  EXPECT_NEAR(set.snap_up(1.1), 1.1, 1e-12);   // exact gear stays
  EXPECT_NEAR(set.snap_up(1.11), 1.4, 1e-12);  // just above snaps up
  EXPECT_NEAR(set.snap_up(0.2), 0.8, 1e-12);   // clamps to fmin
  EXPECT_NEAR(set.snap_up(9.0), 2.3, 1e-12);   // clamps to fmax
}

TEST(GearSet, ContinuousSnapIsIdentityInsideRange) {
  const GearSet set = paper_limited_continuous();
  EXPECT_TRUE(set.is_continuous());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_NEAR(set.snap_up(1.2345), 1.2345, 1e-12);
  EXPECT_NEAR(set.snap_up(0.1), 0.8, 1e-12);
  EXPECT_NEAR(set.snap_up(3.0), 2.3, 1e-12);
}

TEST(GearSet, UnlimitedContinuousReachesNearZero) {
  const GearSet set = paper_unlimited_continuous();
  EXPECT_LT(set.fmin(), 0.1);
  EXPECT_NEAR(set.snap_up(0.05), 0.05, 1e-12);
}

TEST(GearSet, OperatingPointUsesStoredVoltage) {
  const GearSet set = paper_uniform(6);
  const Gear g = set.operating_point(1.05);
  EXPECT_NEAR(g.frequency_ghz, 1.1, 1e-12);
  EXPECT_NEAR(g.voltage_v, 1.1, 1e-9);
}

TEST(GearSet, SnapNearestPicksClosestGear) {
  const GearSet set = paper_uniform(6);
  EXPECT_NEAR(set.snap_nearest(1.24), 1.1, 1e-12);   // below midpoint
  EXPECT_NEAR(set.snap_nearest(1.26), 1.4, 1e-12);   // above midpoint
  EXPECT_NEAR(set.snap_nearest(1.1), 1.1, 1e-12);
  EXPECT_NEAR(set.snap_nearest(0.1), 0.8, 1e-12);
  EXPECT_NEAR(set.snap_nearest(9.0), 2.3, 1e-12);
}

TEST(GearSet, SnapNearestOnContinuousIsClamp) {
  const GearSet set = paper_limited_continuous();
  EXPECT_NEAR(set.snap_nearest(1.234), 1.234, 1e-12);
  EXPECT_NEAR(set.snap_nearest(0.1), 0.8, 1e-12);
}

TEST(GearSet, SnapNearestNeverAboveSnapUp) {
  const GearSet set = paper_uniform(7);
  for (double f = 0.5; f < 2.5; f += 0.037)
    EXPECT_LE(set.snap_nearest(f), set.snap_up(f) + 1e-12) << f;
}

TEST(GearSet, OperatingPointNearestReturnsTabulatedVoltage) {
  const GearSet set = paper_uniform(6);
  const Gear g = set.operating_point_nearest(1.15);
  EXPECT_NEAR(g.frequency_ghz, 1.1, 1e-12);
  EXPECT_NEAR(g.voltage_v, 1.1, 1e-9);
}

TEST(GearSet, WithExtraGearExtendsDiscreteSet) {
  const GearSet set = paper_avg_discrete();
  ASSERT_EQ(set.size(), 7u);
  EXPECT_NEAR(set.fmax(), 2.6, 1e-12);
  EXPECT_NEAR(set.gears().back().voltage_v, 1.6, 1e-12);
  // Snapping just above the nominal max reaches the over-clock gear.
  EXPECT_NEAR(set.snap_up(2.35), 2.6, 1e-12);
}

TEST(GearSet, WithExtraGearRejectsContinuous) {
  EXPECT_THROW(paper_limited_continuous().with_extra_gear(Gear{2.6, 1.6}),
               Error);
}

TEST(GearSet, WithFmaxScaledExtendsContinuousSet) {
  const GearSet set = paper_limited_continuous().with_fmax_scaled(1.1);
  EXPECT_NEAR(set.fmax(), 2.3 * 1.1, 1e-12);
  EXPECT_NEAR(set.snap_up(2.4), 2.4, 1e-12);
}

TEST(GearSet, LimitedOverclockNameScalesFmaxByPercent) {
  // Fig. 8's sets by name: the factor (100 + P) / 100 is the exact double
  // of the literal 1.1 / 1.2.
  EXPECT_EQ(gear_set_by_name("limited-oc10").fmax(),
            paper_limited_continuous().with_fmax_scaled(1.1).fmax());
  EXPECT_EQ(gear_set_by_name("limited-oc20").fmax(),
            paper_limited_continuous().with_fmax_scaled(1.2).fmax());
  EXPECT_THROW(gear_set_by_name("limited-oc-5"), Error);
  EXPECT_THROW(gear_set_by_name("limited-ocx"), Error);
}

TEST(GearSet, WithFmaxScaledRejectsDiscrete) {
  EXPECT_THROW(paper_uniform(6).with_fmax_scaled(1.1), Error);
}

TEST(GearSet, RejectsInvalidConstruction) {
  const VoltageModel vm = VoltageModel::paper_default();
  EXPECT_THROW(GearSet::uniform(1, 0.8, 2.3, vm), Error);
  EXPECT_THROW(GearSet::uniform(4, 2.3, 0.8, vm), Error);
  EXPECT_THROW(GearSet::exponential(1, 0.8, 2.3, vm), Error);
  EXPECT_THROW(GearSet::continuous(-1.0, 2.3, vm), Error);
}

TEST(GearSet, DescribeIsInformative) {
  EXPECT_NE(paper_uniform(6).describe().find("uniform-6"), std::string::npos);
  EXPECT_NE(paper_limited_continuous().describe().find("continuous"),
            std::string::npos);
  EXPECT_NE(paper_avg_discrete().describe().find("oc"), std::string::npos);
}

}  // namespace
}  // namespace pals
