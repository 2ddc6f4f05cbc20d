#include "core/algorithms.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace pals {
namespace {

AlgorithmConfig max_continuous() {
  AlgorithmConfig c;
  c.algorithm = Algorithm::kMax;
  c.gear_set = paper_limited_continuous();
  c.beta = 0.5;
  return c;
}

AlgorithmConfig avg_continuous(double oc_factor) {
  AlgorithmConfig c;
  c.algorithm = Algorithm::kAvg;
  c.gear_set = paper_limited_continuous().with_fmax_scaled(oc_factor);
  c.beta = 0.5;
  return c;
}

TEST(IdealFrequency, NoSlackMeansReferenceFrequency) {
  EXPECT_NEAR(ideal_frequency(10.0, 10.0, 2.3, 0.5), 2.3, 1e-12);
}

TEST(IdealFrequency, KnownSlackValue) {
  // stretch s = 2, beta = 0.5: f = fref * 0.5 / (2 - 1 + 0.5) = fref/3.
  EXPECT_NEAR(ideal_frequency(5.0, 10.0, 2.3, 0.5), 2.3 / 3.0, 1e-12);
}

TEST(IdealFrequency, BetaOneIsInverseProportional) {
  // With beta = 1, doubling allowed time halves the frequency.
  EXPECT_NEAR(ideal_frequency(5.0, 10.0, 2.3, 1.0), 2.3 / 2.0, 1e-12);
}

TEST(IdealFrequency, SpeedupRequiresOverclock) {
  // target < time -> frequency above reference.
  const double f = ideal_frequency(10.0, 9.0, 2.3, 0.5);
  EXPECT_GT(f, 2.3);
}

TEST(IdealFrequency, ImpossibleSpeedupIsInfinite) {
  // stretch of (1 - beta) or less is unreachable at any finite frequency.
  EXPECT_TRUE(std::isinf(ideal_frequency(10.0, 5.0, 2.3, 0.5)));
  EXPECT_TRUE(std::isinf(ideal_frequency(10.0, 4.0, 2.3, 0.5)));
}

TEST(IdealFrequency, ZeroComputationWantsLowestGear) {
  EXPECT_DOUBLE_EQ(ideal_frequency(0.0, 10.0, 2.3, 0.5), 0.0);
}

TEST(IdealFrequency, BetaZeroEdgeCases) {
  EXPECT_DOUBLE_EQ(ideal_frequency(5.0, 10.0, 2.3, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(ideal_frequency(10.0, 5.0, 2.3, 0.0)));
}

TEST(IdealFrequency, RejectsBadArguments) {
  EXPECT_THROW(ideal_frequency(-1.0, 1.0, 2.3, 0.5), Error);
  EXPECT_THROW(ideal_frequency(1.0, 0.0, 2.3, 0.5), Error);
  EXPECT_THROW(ideal_frequency(1.0, 1.0, 0.0, 0.5), Error);
}

TEST(MaxAlgorithm, HeaviestRankKeepsTopFrequency) {
  // Loads chosen so no rank hits the fmin clamp of the limited set.
  const std::vector<Seconds> times{2.5, 3.0, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, max_continuous());
  EXPECT_DOUBLE_EQ(a.target_time, 4.0);
  EXPECT_NEAR(a.gears[2].frequency_ghz, 2.3, 1e-12);
  EXPECT_LT(a.gears[0].frequency_ghz, a.gears[1].frequency_ghz);
  EXPECT_LT(a.gears[1].frequency_ghz, a.gears[2].frequency_ghz);
}

TEST(MaxAlgorithm, DeepSlackClampsAllLightRanksToFmin) {
  const std::vector<Seconds> times{1.0, 2.0, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, max_continuous());
  EXPECT_NEAR(a.gears[0].frequency_ghz, 0.8, 1e-12);
  EXPECT_NEAR(a.gears[1].frequency_ghz, 0.8, 1e-12);
}

TEST(MaxAlgorithm, PredictedTimesNeverExceedTarget) {
  const std::vector<Seconds> times{1.0, 1.7, 2.9, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, max_continuous());
  for (const Seconds t : a.predicted_time)
    EXPECT_LE(t, a.target_time + 1e-9);
}

TEST(MaxAlgorithm, ContinuousAssignmentBalancesExactlyWithinRange) {
  const std::vector<Seconds> times{3.0, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, max_continuous());
  // Rank 0 slack is within the limited continuous range: exact balance.
  EXPECT_NEAR(a.predicted_time[0], 4.0, 1e-9);
}

TEST(MaxAlgorithm, FminClampLimitsSlowdown) {
  // Extremely light rank cannot go below fmin = 0.8 GHz.
  const std::vector<Seconds> times{0.001, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, max_continuous());
  EXPECT_NEAR(a.gears[0].frequency_ghz, 0.8, 1e-12);
  EXPECT_LT(a.predicted_time[0], a.target_time);
}

TEST(MaxAlgorithm, UnlimitedSetGoesBelowPointEight) {
  AlgorithmConfig c = max_continuous();
  c.gear_set = paper_unlimited_continuous();
  const std::vector<Seconds> times{0.1, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, c);
  EXPECT_LT(a.gears[0].frequency_ghz, 0.8);
}

TEST(MaxAlgorithm, DiscreteSnapUpKeepsTimesUnderTarget) {
  AlgorithmConfig c = max_continuous();
  c.gear_set = paper_uniform(6);
  const std::vector<Seconds> times{1.0, 1.3, 2.2, 3.1, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, c);
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_LE(a.predicted_time[k], a.target_time + 1e-9) << k;
    // Chosen gear is from the set.
    bool found = false;
    for (const Gear& g : c.gear_set.gears())
      if (std::abs(g.frequency_ghz - a.gears[k].frequency_ghz) < 1e-12)
        found = true;
    EXPECT_TRUE(found) << "rank " << k;
  }
}

TEST(MaxAlgorithm, NeverOverclocks) {
  AlgorithmConfig c = max_continuous();
  const std::vector<Seconds> times{1.0, 2.0, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, c);
  EXPECT_EQ(a.overclocked_count(c.nominal_fmax_ghz), 0u);
  EXPECT_DOUBLE_EQ(a.overclocked_fraction(c.nominal_fmax_ghz), 0.0);
}

TEST(MaxAlgorithm, BalancedInputGetsTopFrequencyEverywhere) {
  const std::vector<Seconds> times{2.0, 2.0, 2.0, 2.0};
  const FrequencyAssignment a = assign_frequencies(times, max_continuous());
  for (const Gear& g : a.gears) EXPECT_NEAR(g.frequency_ghz, 2.3, 1e-12);
}

TEST(AvgAlgorithm, TargetsAverageWhenAttainable) {
  // Mild imbalance: the heavy rank reaches the mean with 10 % overclock.
  const std::vector<Seconds> times{3.8, 4.0};
  const FrequencyAssignment a =
      assign_frequencies(times, avg_continuous(1.1));
  EXPECT_NEAR(a.target_time, 3.9, 1e-12);
  EXPECT_GT(a.gears[1].frequency_ghz, 2.3);
  EXPECT_NEAR(a.predicted_time[1], 3.9, 1e-9);
}

TEST(AvgAlgorithm, RaisesTargetWhenAverageUnattainable) {
  // Strong imbalance: mean is 2.05, far below what +10 % OC can reach.
  const std::vector<Seconds> times{0.1, 4.0};
  const FrequencyAssignment a =
      assign_frequencies(times, avg_continuous(1.1));
  const double stretch_at_max = 0.5 * (2.3 / (2.3 * 1.1) - 1.0) + 1.0;
  EXPECT_NEAR(a.target_time, 4.0 * stretch_at_max, 1e-9);
  // The heavy rank runs at the over-clock limit.
  EXPECT_NEAR(a.gears[1].frequency_ghz, 2.3 * 1.1, 1e-9);
}

TEST(AvgAlgorithm, MoreOverclockHeadroomLowersTarget) {
  const std::vector<Seconds> times{0.1, 4.0};
  const FrequencyAssignment a10 =
      assign_frequencies(times, avg_continuous(1.1));
  const FrequencyAssignment a20 =
      assign_frequencies(times, avg_continuous(1.2));
  EXPECT_LT(a20.target_time, a10.target_time);
}

TEST(AvgAlgorithm, DiscreteOverclockGearIsUsed) {
  AlgorithmConfig c;
  c.algorithm = Algorithm::kAvg;
  c.gear_set = paper_avg_discrete();
  c.beta = 0.5;
  const std::vector<Seconds> times{1.0, 1.0, 1.0, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, c);
  EXPECT_NEAR(a.gears[3].frequency_ghz, 2.6, 1e-12);
  EXPECT_EQ(a.overclocked_count(c.nominal_fmax_ghz), 1u);
  EXPECT_DOUBLE_EQ(a.overclocked_fraction(c.nominal_fmax_ghz), 0.25);
}

TEST(AvgAlgorithm, TargetNeverBelowAverage) {
  const std::vector<Seconds> times{1.0, 2.0, 3.0, 4.0, 5.0};
  const FrequencyAssignment a =
      assign_frequencies(times, avg_continuous(1.2));
  EXPECT_GE(a.target_time, 3.0 - 1e-12);
}

TEST(AssignFrequencies, RejectsDegenerateInput) {
  EXPECT_THROW(assign_frequencies({}, max_continuous()), Error);
  const std::vector<Seconds> neg{1.0, -1.0};
  EXPECT_THROW(assign_frequencies(neg, max_continuous()), Error);
  const std::vector<Seconds> zeros{0.0, 0.0};
  EXPECT_THROW(assign_frequencies(zeros, max_continuous()), Error);
}

TEST(AssignFrequencies, ZeroLoadRankGetsLowestFrequency) {
  const std::vector<Seconds> times{0.0, 4.0};
  const FrequencyAssignment a = assign_frequencies(times, max_continuous());
  EXPECT_NEAR(a.gears[0].frequency_ghz, 0.8, 1e-12);
}

TEST(PerPhaseAssignment, IndependentPerPhase) {
  AlgorithmConfig c = max_continuous();
  const std::vector<std::vector<Seconds>> phases{{1.0, 4.0}, {4.0, 1.0}};
  const auto assignments = assign_frequencies_per_phase(phases, c);
  ASSERT_EQ(assignments.size(), 2u);
  // Phase 0: rank 1 heavy; phase 1: rank 0 heavy.
  EXPECT_NEAR(assignments[0].gears[1].frequency_ghz, 2.3, 1e-12);
  EXPECT_NEAR(assignments[1].gears[0].frequency_ghz, 2.3, 1e-12);
  EXPECT_LT(assignments[0].gears[0].frequency_ghz, 2.3);
}

AlgorithmConfig eopt_uniform6() {
  AlgorithmConfig c;
  c.algorithm = Algorithm::kEnergyOptimalMax;
  c.gear_set = paper_uniform(6);
  c.beta = 0.5;
  return c;
}

TEST(EnergyOptimal, MatchesMaxWhenDynamicPowerDominates) {
  // With zero static power, running as slowly as feasible is optimal:
  // the energy-optimal choice coincides with MAX's snap-up.
  PowerModelConfig power;
  power.static_fraction = 0.0;
  const std::vector<Seconds> times{0.5, 1.1, 2.4, 4.0};
  const FrequencyAssignment eopt =
      assign_frequencies_energy_optimal(times, eopt_uniform6(), power);
  AlgorithmConfig max_config = eopt_uniform6();
  max_config.algorithm = Algorithm::kMax;
  const FrequencyAssignment max_assign =
      assign_frequencies(times, max_config);
  for (std::size_t r = 0; r < times.size(); ++r)
    EXPECT_NEAR(eopt.gears[r].frequency_ghz,
                max_assign.gears[r].frequency_ghz, 1e-12)
        << "rank " << r;
}

TEST(EnergyOptimal, PaperModelMakesSnapUpExactlyOptimal) {
  // Under the paper's model (the CPU stays powered at the chosen gear
  // while waiting, idle_scale = 1), every energy term decreases with the
  // gear, so MAX's lowest-feasible rule is provably optimal — EOPT must
  // reproduce it at any static fraction.
  for (const double sf : {0.2, 0.9}) {
    PowerModelConfig power;
    power.static_fraction = sf;
    const std::vector<Seconds> times{0.5, 1.3, 4.0};
    const FrequencyAssignment eopt =
        assign_frequencies_energy_optimal(times, eopt_uniform6(), power);
    AlgorithmConfig max_config = eopt_uniform6();
    max_config.algorithm = Algorithm::kMax;
    const FrequencyAssignment max_assign =
        assign_frequencies(times, max_config);
    for (std::size_t r = 0; r < times.size(); ++r)
      EXPECT_NEAR(eopt.gears[r].frequency_ghz,
                  max_assign.gears[r].frequency_ghz, 1e-12)
          << "sf " << sf << " rank " << r;
  }
}

TEST(EnergyOptimal, DeepIdleStatesMakeRaceToIdleWin) {
  // With C-states (waiting costs ~5 % of active power) and substantial
  // static power, crawling keeps the static draw alive for longer than
  // finishing faster and sleeping: the optimal gear moves up.
  PowerModelConfig power;
  power.static_fraction = 0.6;
  power.idle_scale = 0.05;
  const std::vector<Seconds> times{0.5, 4.0};
  const FrequencyAssignment eopt =
      assign_frequencies_energy_optimal(times, eopt_uniform6(), power);
  EXPECT_GT(eopt.gears[0].frequency_ghz, 0.8 + 1e-12);
}

TEST(EnergyOptimal, NeverWorseThanMaxInModeledEnergy) {
  for (const double sf : {0.0, 0.2, 0.5, 0.8}) {
    PowerModelConfig power;
    power.static_fraction = sf;
    power.idle_scale = sf > 0.4 ? 0.1 : 1.0;  // exercise both regimes
    const PowerModel pm(power);
    const std::vector<Seconds> times{0.3, 0.9, 1.8, 4.0};
    const Seconds window = 4.0;
    const auto modeled_energy = [&](const FrequencyAssignment& a) {
      double total = 0.0;
      for (std::size_t r = 0; r < times.size(); ++r) {
        const Seconds compute = a.predicted_time[r];
        total += compute * pm.total_power(a.gears[r], true) +
                 std::max(0.0, window - compute) *
                     pm.total_power(a.gears[r], false);
      }
      return total;
    };
    const FrequencyAssignment eopt =
        assign_frequencies_energy_optimal(times, eopt_uniform6(), power);
    AlgorithmConfig max_config = eopt_uniform6();
    max_config.algorithm = Algorithm::kMax;
    const FrequencyAssignment max_assign =
        assign_frequencies(times, max_config);
    EXPECT_LE(modeled_energy(eopt), modeled_energy(max_assign) + 1e-12)
        << "static " << sf;
  }
}

TEST(EnergyOptimal, RespectsTheMaxTimeContract) {
  PowerModelConfig power;
  const std::vector<Seconds> times{0.7, 1.9, 4.0};
  const FrequencyAssignment a =
      assign_frequencies_energy_optimal(times, eopt_uniform6(), power);
  for (const Seconds t : a.predicted_time)
    EXPECT_LE(t, a.target_time + 1e-9);
  EXPECT_EQ(a.overclocked_count(2.3), 0u);
}

TEST(EnergyOptimal, RejectsContinuousSetsAndBetaMismatch) {
  PowerModelConfig power;
  const std::vector<Seconds> times{1.0, 2.0};
  AlgorithmConfig continuous = eopt_uniform6();
  continuous.gear_set = paper_limited_continuous();
  EXPECT_THROW(
      assign_frequencies_energy_optimal(times, continuous, power), Error);
  AlgorithmConfig mismatched = eopt_uniform6();
  mismatched.beta = 0.7;  // power.beta stays 0.5
  EXPECT_THROW(
      assign_frequencies_energy_optimal(times, mismatched, power), Error);
}

TEST(EnergyOptimal, PlainAssignRejectsTheEnumValue) {
  const std::vector<Seconds> times{1.0, 2.0};
  EXPECT_THROW(assign_frequencies(times, eopt_uniform6()), Error);
}

TEST(AlgorithmNames, ToString) {
  EXPECT_EQ(to_string(Algorithm::kMax), "MAX");
  EXPECT_EQ(to_string(Algorithm::kAvg), "AVG");
}

}  // namespace
}  // namespace pals
