// Property sweeps of the assignment algorithms over random load vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/algorithms.hpp"
#include "util/rng.hpp"

namespace pals {
namespace {

std::vector<Seconds> random_loads(Rng& rng, std::size_t n) {
  std::vector<Seconds> loads(n);
  for (auto& t : loads) t = rng.uniform(0.05, 1.0);
  return loads;
}

class AssignmentProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssignmentProperty, MaxNeverBreaksItsContract) {
  Rng rng(GetParam());
  for (const GearSet& set :
       {paper_uniform(2), paper_uniform(6), paper_exponential(4),
        paper_limited_continuous(), paper_unlimited_continuous()}) {
    AlgorithmConfig config;
    config.gear_set = set;
    for (int trial = 0; trial < 20; ++trial) {
      const auto loads = random_loads(rng, rng.uniform_int(2, 64));
      const FrequencyAssignment a = assign_frequencies(loads, config);
      const Seconds t_max =
          *std::max_element(loads.begin(), loads.end());
      EXPECT_DOUBLE_EQ(a.target_time, t_max);
      for (std::size_t r = 0; r < loads.size(); ++r) {
        // Contract: no rank stretches past the critical path, and no
        // rank exceeds the nominal frequency.
        EXPECT_LE(a.predicted_time[r], t_max + 1e-9)
            << set.describe() << " rank " << r;
        EXPECT_LE(a.gears[r].frequency_ghz, 2.3 + 1e-12);
      }
      // The heaviest rank runs at the top frequency.
      const auto heaviest = static_cast<std::size_t>(
          std::max_element(loads.begin(), loads.end()) - loads.begin());
      EXPECT_NEAR(a.gears[heaviest].frequency_ghz, 2.3, 1e-12);
    }
  }
}

TEST_P(AssignmentProperty, MaxIsMonotoneInLoad) {
  // A rank with more work never gets a lower frequency.
  Rng rng(GetParam() + 100);
  AlgorithmConfig config;
  config.gear_set = paper_uniform(8);
  for (int trial = 0; trial < 30; ++trial) {
    const auto loads = random_loads(rng, 16);
    const FrequencyAssignment a = assign_frequencies(loads, config);
    for (std::size_t i = 0; i < loads.size(); ++i)
      for (std::size_t j = 0; j < loads.size(); ++j)
        if (loads[i] < loads[j]) {
          EXPECT_LE(a.gears[i].frequency_ghz,
                    a.gears[j].frequency_ghz + 1e-12);
        }
  }
}

TEST_P(AssignmentProperty, AvgTargetBetweenMeanAndMax) {
  Rng rng(GetParam() + 200);
  AlgorithmConfig config;
  config.algorithm = Algorithm::kAvg;
  config.gear_set = paper_avg_discrete();
  for (int trial = 0; trial < 30; ++trial) {
    const auto loads = random_loads(rng, rng.uniform_int(2, 64));
    const FrequencyAssignment a = assign_frequencies(loads, config);
    const Seconds mean =
        std::accumulate(loads.begin(), loads.end(), 0.0) /
        static_cast<double>(loads.size());
    const Seconds t_max = *std::max_element(loads.begin(), loads.end());
    EXPECT_GE(a.target_time, mean - 1e-12);
    EXPECT_LE(a.target_time, t_max + 1e-12);
  }
}

TEST_P(AssignmentProperty, AvgOverclocksOnlyAboveTargetRanks) {
  Rng rng(GetParam() + 300);
  AlgorithmConfig config;
  config.algorithm = Algorithm::kAvg;
  config.gear_set = paper_avg_discrete();
  for (int trial = 0; trial < 30; ++trial) {
    const auto loads = random_loads(rng, 32);
    const FrequencyAssignment a = assign_frequencies(loads, config);
    for (std::size_t r = 0; r < loads.size(); ++r) {
      if (a.gears[r].frequency_ghz > 2.3 + 1e-12) {
        EXPECT_GT(loads[r], a.target_time - 1e-12) << "rank " << r;
      }
    }
  }
}

TEST_P(AssignmentProperty, TighterGearSetsNeverSlowTheCriticalPath) {
  // Whatever the set, the *maximum* predicted time equals the target.
  Rng rng(GetParam() + 400);
  for (const int gears : {2, 4, 8, 15}) {
    AlgorithmConfig config;
    config.gear_set = paper_uniform(gears);
    const auto loads = random_loads(rng, 24);
    const FrequencyAssignment a = assign_frequencies(loads, config);
    const Seconds worst = *std::max_element(a.predicted_time.begin(),
                                            a.predicted_time.end());
    EXPECT_NEAR(worst, a.target_time, 1e-9) << gears << " gears";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentProperty,
                         ::testing::Values(3u, 7u, 31u, 127u, 8191u));

}  // namespace
}  // namespace pals
