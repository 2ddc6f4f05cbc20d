#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace pals {
namespace {

PowerModelConfig paper_config() { return PowerModelConfig{}; }

TEST(PowerModelConfig, ValidatesRanges) {
  PowerModelConfig c = paper_config();
  c.activity_ratio = 0.5;
  EXPECT_THROW(c.validate(), Error);
  c = paper_config();
  c.static_fraction = 1.0;
  EXPECT_THROW(c.validate(), Error);
  c = paper_config();
  c.beta = 1.5;
  EXPECT_THROW(c.validate(), Error);
  c = paper_config();
  c.reference = Gear{0.0, 1.5};
  EXPECT_THROW(c.validate(), Error);
}

TEST(PowerModel, StaticFractionCalibratesAtReference) {
  const PowerModel pm(paper_config());
  const Gear ref{2.3, 1.5};
  const double total = pm.total_power(ref, /*computing=*/true);
  EXPECT_NEAR(pm.static_power(ref) / total, 0.2, 1e-12);
}

TEST(PowerModel, ZeroStaticFraction) {
  PowerModelConfig c = paper_config();
  c.static_fraction = 0.0;
  const PowerModel pm(c);
  EXPECT_DOUBLE_EQ(pm.static_power(Gear{2.3, 1.5}), 0.0);
}

TEST(PowerModel, DynamicPowerFollowsFV2) {
  const PowerModel pm(paper_config());
  const double p1 = pm.dynamic_power(Gear{1.0, 1.0}, true);
  const double p2 = pm.dynamic_power(Gear{2.0, 1.0}, true);
  const double p3 = pm.dynamic_power(Gear{1.0, 2.0}, true);
  EXPECT_NEAR(p2 / p1, 2.0, 1e-12);  // linear in f
  EXPECT_NEAR(p3 / p1, 4.0, 1e-12);  // quadratic in V
}

TEST(PowerModel, ActivityRatioSeparatesComputeAndComm) {
  const PowerModel pm(paper_config());
  const Gear g{2.3, 1.5};
  EXPECT_NEAR(pm.dynamic_power(g, true) / pm.dynamic_power(g, false), 1.5,
              1e-12);
}

TEST(PowerModel, StaticPowerScalesWithVoltageOnly) {
  const PowerModel pm(paper_config());
  EXPECT_NEAR(pm.static_power(Gear{0.8, 1.0}) / pm.static_power(Gear{2.3, 1.5}),
              1.0 / 1.5, 1e-12);
}

TEST(TimeScale, ReferenceFrequencyIsIdentity) {
  const PowerModel pm(paper_config());
  EXPECT_DOUBLE_EQ(pm.time_scale(2.3), 1.0);
}

TEST(TimeScale, BetaOneHalvingFrequencyDoublesTime) {
  PowerModelConfig c = paper_config();
  c.beta = 1.0;
  const PowerModel pm(c);
  EXPECT_NEAR(pm.time_scale(2.3 / 2.0), 2.0, 1e-12);
}

TEST(TimeScale, BetaZeroFrequencyIndependent) {
  PowerModelConfig c = paper_config();
  c.beta = 0.0;
  const PowerModel pm(c);
  EXPECT_DOUBLE_EQ(pm.time_scale(0.8), 1.0);
  EXPECT_DOUBLE_EQ(pm.time_scale(2.3), 1.0);
}

TEST(TimeScale, OverclockingShortensTime) {
  const PowerModel pm(paper_config());
  EXPECT_LT(pm.time_scale(2.6), 1.0);
  EXPECT_GT(pm.time_scale(2.6), 1.0 - 0.5);  // bounded by 1 - beta
}

TEST(TimeScale, ExplicitBetaOverride) {
  const PowerModel pm(paper_config());
  EXPECT_NEAR(pm.time_scale(1.15, 1.0), 2.0, 1e-12);
  EXPECT_NEAR(pm.time_scale(1.15, 0.5), 1.5, 1e-12);
}

TEST(TimeScale, RejectsBadArguments) {
  const PowerModel pm(paper_config());
  EXPECT_THROW(pm.time_scale(0.0), Error);
  EXPECT_THROW(pm.time_scale(1.0, 2.0), Error);
}

Timeline uniform_timeline(Rank ranks, Seconds compute, Seconds wait) {
  Timeline tl(ranks);
  for (Rank r = 0; r < ranks; ++r) {
    tl.append(r, {0.0, compute, RankState::kCompute, -1});
    tl.append(r, {compute, compute + wait, RankState::kWait, -1});
  }
  return tl;
}

TEST(Energy, IntegratesPowerOverStates) {
  const PowerModel pm(paper_config());
  const Timeline tl = uniform_timeline(1, 2.0, 3.0);
  const Gear g{2.3, 1.5};
  const double expected =
      2.0 * pm.total_power(g, true) + 3.0 * pm.total_power(g, false);
  EXPECT_NEAR(pm.rank_energy(tl, 0, g), expected, 1e-12);
}

TEST(Energy, BaselineEqualsPerRankSum) {
  const PowerModel pm(paper_config());
  const Timeline tl = uniform_timeline(4, 1.0, 0.5);
  const std::vector<Gear> gears(4, paper_config().reference);
  EXPECT_NEAR(pm.baseline_energy(tl), pm.total_energy(tl, gears), 1e-12);
}

TEST(Energy, LowerGearUsesLessEnergyWhenTimeFixed) {
  // Same timeline (communication-only rank): lower gear strictly cheaper.
  const PowerModel pm(paper_config());
  Timeline tl(1);
  tl.append(0, {0.0, 5.0, RankState::kWait, -1});
  const double high = pm.rank_energy(tl, 0, Gear{2.3, 1.5});
  const double low = pm.rank_energy(tl, 0, Gear{0.8, 1.0});
  EXPECT_LT(low, high);
}

TEST(Energy, ShortLaneChargedIdleTail) {
  const PowerModel pm(paper_config());
  Timeline tl(2);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1});
  tl.append(1, {0.0, 4.0, RankState::kCompute, -1});
  const Gear g = paper_config().reference;
  // Rank 0's missing 3 s tail is charged at communication activity.
  const double expected =
      1.0 * pm.total_power(g, true) + 3.0 * pm.total_power(g, false);
  EXPECT_NEAR(pm.rank_energy(tl, 0, g), expected, 1e-12);
}

TEST(Energy, GearCountMismatchThrows) {
  const PowerModel pm(paper_config());
  const Timeline tl = uniform_timeline(3, 1.0, 1.0);
  const std::vector<Gear> gears(2, paper_config().reference);
  EXPECT_THROW(pm.total_energy(tl, gears), Error);
}

TEST(PowerSeries, FlatForConstantActivity) {
  const PowerModel pm(paper_config());
  Timeline tl(1);
  tl.append(0, {0.0, 4.0, RankState::kCompute, -1, -1});
  const std::vector<Gear> gears{{2.3, 1.5}};
  const auto series = pm.power_series(tl, gears, 1.0);
  ASSERT_EQ(series.size(), 4u);
  const double expected = pm.total_power(gears[0], true);
  for (const double p : series) EXPECT_NEAR(p, expected, 1e-12);
}

TEST(PowerSeries, StepsDownWhenComputeEnds) {
  const PowerModel pm(paper_config());
  Timeline tl(1);
  tl.append(0, {0.0, 2.0, RankState::kCompute, -1, -1});
  tl.append(0, {2.0, 4.0, RankState::kWait, -1, -1});
  const std::vector<Gear> gears{{2.3, 1.5}};
  const auto series = pm.power_series(tl, gears, 1.0);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_GT(series[0], series[3]);
  EXPECT_NEAR(series[3], pm.total_power(gears[0], false), 1e-12);
}

TEST(PowerSeries, IntegratesBackToTotalEnergy) {
  const PowerModel pm(paper_config());
  Timeline tl(2);
  tl.append(0, {0.0, 1.3, RankState::kCompute, -1, -1});
  tl.append(0, {1.3, 2.1, RankState::kRecv, -1, -1});
  tl.append(1, {0.0, 3.7, RankState::kCompute, -1, -1});
  const std::vector<Gear> gears{{1.4, 1.2}, {2.0, 1.4}};
  const Seconds dt = 0.23;  // deliberately not dividing the makespan
  const auto series = pm.power_series(tl, gears, dt);
  double integrated = 0.0;
  for (const double p : series) integrated += p * dt;
  EXPECT_NEAR(integrated, pm.total_energy(tl, gears), 1e-9);
}

TEST(PowerSeries, SplitsIntervalsAcrossBins) {
  const PowerModel pm(paper_config());
  Timeline tl(1);
  tl.append(0, {0.0, 1.5, RankState::kCompute, -1, -1});
  tl.append(0, {1.5, 2.0, RankState::kWait, -1, -1});
  const std::vector<Gear> gears{{2.3, 1.5}};
  const auto series = pm.power_series(tl, gears, 1.0);
  ASSERT_EQ(series.size(), 2u);
  // Bin 1 is half compute, half wait.
  const double expected = 0.5 * pm.total_power(gears[0], true) +
                          0.5 * pm.total_power(gears[0], false);
  EXPECT_NEAR(series[1], expected, 1e-12);
}

TEST(PowerSeries, RejectsBadArguments) {
  const PowerModel pm(paper_config());
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1, -1});
  const std::vector<Gear> gears{{2.3, 1.5}};
  EXPECT_THROW(pm.power_series(tl, gears, 0.0), Error);
  const std::vector<Gear> wrong(2, Gear{2.3, 1.5});
  EXPECT_THROW(pm.power_series(tl, wrong, 1.0), Error);
}

TEST(Energy, HigherStaticFractionFlattensFrequencySavings) {
  // With overwhelmingly static power, down-clocking saves much less.
  Timeline tl(1);
  tl.append(0, {0.0, 1.0, RankState::kWait, -1});
  PowerModelConfig low_static = paper_config();
  low_static.static_fraction = 0.0;
  PowerModelConfig high_static = paper_config();
  high_static.static_fraction = 0.9;
  const PowerModel pm_low(low_static);
  const PowerModel pm_high(high_static);
  const auto ratio = [&](const PowerModel& pm) {
    return pm.rank_energy(tl, 0, Gear{0.8, 1.0}) /
           pm.rank_energy(tl, 0, Gear{2.3, 1.5});
  };
  EXPECT_LT(ratio(pm_low), ratio(pm_high));
}

}  // namespace
}  // namespace pals
