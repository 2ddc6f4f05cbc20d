#include "core/bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/algorithms.hpp"
#include "core/pipeline.hpp"
#include "power/gearset.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pals {
namespace {

EnergyBoundConfig default_config() { return EnergyBoundConfig{}; }

TEST(EnergyBound, ValidatesInput) {
  const std::vector<Seconds> times{1.0, 2.0};
  EXPECT_THROW(energy_saving_bound({}, 2.0, 0.0, default_config()), Error);
  EXPECT_THROW(energy_saving_bound(times, 1.0, 0.0, default_config()),
               Error);  // total < max comp
  EXPECT_THROW(energy_saving_bound(times, 2.5, -0.1, default_config()),
               Error);
  EnergyBoundConfig bad = default_config();
  bad.fmax_ghz = 3.0;  // bound does not model over-clocking
  EXPECT_THROW(energy_saving_bound(times, 2.5, 0.0, bad), Error);
}

TEST(EnergyBound, BalancedRanksCannotSave) {
  const std::vector<Seconds> times{2.0, 2.0, 2.0};
  const EnergyBound b =
      energy_saving_bound(times, 2.0, 0.0, default_config());
  EXPECT_NEAR(b.normalized_energy, 1.0, 1e-6);
  for (const double f : b.frequency_ghz) EXPECT_NEAR(f, 2.3, 1e-3);
}

TEST(EnergyBound, ImbalancedRanksSave) {
  const std::vector<Seconds> times{0.5, 1.0, 2.0, 4.0};
  const EnergyBound b =
      energy_saving_bound(times, 4.0, 0.0, default_config());
  EXPECT_LT(b.normalized_energy, 0.8);
  // Light ranks run slower than heavy ranks.
  EXPECT_LT(b.frequency_ghz[0], b.frequency_ghz[3]);
  EXPECT_NEAR(b.frequency_ghz[3], 2.3, 1e-3);
}

TEST(EnergyBound, AllowedSlowdownOnlyHelps) {
  const std::vector<Seconds> times{1.0, 2.0, 4.0};
  const EnergyBound tight =
      energy_saving_bound(times, 4.2, 0.0, default_config());
  const EnergyBound loose =
      energy_saving_bound(times, 4.2, 0.2, default_config());
  EXPECT_LE(loose.normalized_energy, tight.normalized_energy + 1e-9);
  EXPECT_GT(loose.predicted_time, tight.predicted_time);
}

TEST(EnergyBound, PredictedTimeMatchesBudget) {
  const std::vector<Seconds> times{1.0, 4.0};
  const EnergyBound b =
      energy_saving_bound(times, 5.0, 0.1, default_config());
  EXPECT_NEAR(b.predicted_time, 5.5, 1e-12);
}

TEST(EnergyBound, LowerBoundsTheMaxAlgorithm) {
  // The bound (continuous frequencies, unlimited floor, perfect balance)
  // must never be beaten by the realizable MAX pipeline.
  const std::vector<double> weights{0.2, 0.5, 0.8, 1.0};
  Trace t(4);
  for (Rank r = 0; r < 4; ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < 4; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(0.1 * weights[static_cast<std::size_t>(r)])
          .collective(CollectiveOp::kAllreduce, 8)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  PipelineConfig pipeline_config;
  pipeline_config.algorithm.gear_set = paper_unlimited_continuous();
  const PipelineResult pipeline = run_pipeline(t, pipeline_config);

  const EnergyBound bound = energy_saving_bound(
      pipeline.computation_time, pipeline.baseline_time,
      pipeline.normalized_time() - 1.0 + 1e-9, default_config());
  EXPECT_LE(bound.normalized_energy,
            pipeline.normalized_energy() + 0.01);
}

TEST(EnergyBound, HighStaticPowerRaisesOptimalFrequencies) {
  // With dominant static power, crawling at fmin is no longer optimal:
  // the bound picks higher frequencies than in the dynamic-dominated case.
  const std::vector<Seconds> times{0.2, 4.0};
  EnergyBoundConfig dyn = default_config();
  dyn.power.static_fraction = 0.0;
  EnergyBoundConfig stat = default_config();
  stat.power.static_fraction = 0.9;
  const EnergyBound b_dyn = energy_saving_bound(times, 4.0, 0.0, dyn);
  const EnergyBound b_stat = energy_saving_bound(times, 4.0, 0.0, stat);
  EXPECT_LT(b_dyn.normalized_energy, b_stat.normalized_energy);
}

TEST(EnergyBound, ZeroComputationRankHandled) {
  const std::vector<Seconds> times{0.0, 2.0};
  const EnergyBound b =
      energy_saving_bound(times, 2.0, 0.0, default_config());
  EXPECT_NEAR(b.frequency_ghz[0], default_config().fmin_ghz, 1e-12);
  EXPECT_LT(b.normalized_energy, 1.0);
}

TEST(EnergyBound, SnappedBaselineTolerated) {
  // Gear-snapped callers derive total_time and the compute profile from
  // independently rounded replays: a makespan one ulp under the critical
  // compute time is legitimate noise, not an invalid input.
  const std::vector<Seconds> times{1.0, 2.0};
  const EnergyBound b = energy_saving_bound(times, 2.0 * (1.0 - 1e-12), 0.0,
                                            default_config());
  EXPECT_GT(b.normalized_energy, 0.0);
  EXPECT_LE(b.normalized_energy, 1.0 + 1e-9);
  // The sub-ulp communication deficit clamps to zero instead of going
  // negative and inflating the compute budget.
  EXPECT_LE(b.predicted_time, 2.0 + 1e-9);
}

TEST(EnergyBound, SingleRankTrace) {
  // One rank, some communication: nothing to rebalance, so the only
  // saving is slack outside the critical compute time.
  const std::vector<Seconds> times{2.0};
  const EnergyBound b =
      energy_saving_bound(times, 3.0, 0.0, default_config());
  ASSERT_EQ(b.frequency_ghz.size(), 1u);
  EXPECT_NEAR(b.frequency_ghz[0], 2.3, 1e-3);  // critical rank stays fast
  EXPECT_NEAR(b.predicted_time, 3.0, 1e-12);
  EXPECT_LE(b.normalized_energy, 1.0 + 1e-9);
}

TEST(EnergyBound, FminEqualsFmaxIsExactlyBaseline) {
  // A degenerate one-point frequency range at the reference gear admits
  // no DVFS at all: the bound must reproduce the baseline bit-exactly
  // (same energy terms, same accumulation order), not approximately.
  const std::vector<Seconds> times{1.0, 2.0, 4.0};
  EnergyBoundConfig config = default_config();
  config.fmin_ghz = config.power.reference.frequency_ghz;
  config.fmax_ghz = config.power.reference.frequency_ghz;
  const EnergyBound b = energy_saving_bound(times, 4.0, 0.0, config);
  EXPECT_EQ(b.normalized_energy, 1.0);
  for (const double f : b.frequency_ghz)
    EXPECT_EQ(f, config.power.reference.frequency_ghz);
  EXPECT_NEAR(b.predicted_time, 4.0, 1e-12);
}

TEST(EnergyBound, FmaxBelowReferenceRelaxesBudget) {
  // With fmax below the reference frequency even δ=0 is unattainable:
  // the critical rank stretches past the budget at full admissible
  // speed. The bound relaxes the budget to that floor and reports the
  // honest synchronized finish instead of the impossible (1+δ)·T0.
  const std::vector<Seconds> times{1.0, 4.0};
  EnergyBoundConfig config = default_config();
  config.fmax_ghz = 1.8;
  const EnergyBound b = energy_saving_bound(times, 5.0, 0.0, config);
  const double beta = config.power.beta;
  const double fref = config.power.reference.frequency_ghz;
  const double stretch = beta * (fref / config.fmax_ghz - 1.0) + 1.0;
  EXPECT_GT(b.predicted_time, 5.0);
  EXPECT_NEAR(b.predicted_time, 1.0 + 4.0 * stretch, 1e-9);
  for (const double f : b.frequency_ghz) EXPECT_LE(f, 1.8 + 1e-12);
}

/// energy_saving_bound as it evaluated every grid point before the
/// frequency terms were hoisted: the gear and both powers per point.
EnergyBound loop_energy_saving_bound(std::span<const Seconds> computation_time,
                                     Seconds total_time,
                                     double allowed_slowdown,
                                     const EnergyBoundConfig& config) {
  const PowerModel power(config.power);
  const VoltageModel vm = VoltageModel::paper_default();
  const double fref = config.power.reference.frequency_ghz;
  const double beta = config.power.beta;
  const auto rank_energy_at = [&](double f_ghz, Seconds compute_time,
                                  Seconds total) {
    const Gear gear = vm.gear(f_ghz);
    return compute_time * power.total_power(gear, true) +
           (total - compute_time) * power.total_power(gear, false);
  };
  const Seconds t_max =
      *std::max_element(computation_time.begin(), computation_time.end());
  const Seconds comm = std::max(0.0, total_time - t_max);
  const double stretch_at_fmax = beta * (fref / config.fmax_ghz - 1.0) + 1.0;
  const Seconds compute_budget =
      std::max((1.0 + allowed_slowdown) * total_time - comm,
               t_max * stretch_at_fmax);
  const Seconds new_total = compute_budget + comm;
  EnergyBound bound;
  bound.predicted_time = new_total;
  double energy = 0.0;
  double baseline_energy = 0.0;
  for (const Seconds t : computation_time) {
    baseline_energy += rank_energy_at(fref, t, total_time);
    if (t == 0.0) {
      bound.frequency_ghz.push_back(config.fmin_ghz);
      energy += rank_energy_at(config.fmin_ghz, 0.0, new_total);
      continue;
    }
    const double f_lo =
        std::clamp(ideal_frequency(t, compute_budget, fref, beta),
                   config.fmin_ghz, config.fmax_ghz);
    double best_f = config.fmax_ghz;
    double best_e = rank_energy_at(
        best_f, t * (beta * (fref / best_f - 1.0) + 1.0), new_total);
    constexpr int kGrid = 512;
    for (int i = 0; i <= kGrid; ++i) {
      const double f =
          f_lo + (config.fmax_ghz - f_lo) * static_cast<double>(i) / kGrid;
      const Seconds stretched = t * (beta * (fref / f - 1.0) + 1.0);
      const double e = rank_energy_at(f, stretched, new_total);
      if (e < best_e) {
        best_e = e;
        best_f = f;
      }
    }
    bound.frequency_ghz.push_back(best_f);
    energy += best_e;
  }
  bound.normalized_energy = energy / baseline_energy;
  return bound;
}

TEST(EnergyBound, HoistedGridMatchesPerPointLoopBitForBit) {
  Rng rng(20090525);
  for (int trial = 0; trial < 60; ++trial) {
    const auto ranks = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<Seconds> times;
    for (std::size_t r = 0; r < ranks; ++r)
      times.push_back(rng.uniform_int(0, 9) == 0 ? 0.0
                                                 : rng.uniform(0.01, 4.0));
    times[rng.uniform_int(0, ranks - 1)] = 4.0;  // at least one busy rank
    EnergyBoundConfig config = default_config();
    config.power.beta = rng.uniform(0.1, 1.0);
    config.power.static_fraction = rng.uniform(0.05, 0.6);
    config.fmin_ghz = rng.uniform(0.4, 1.6);
    config.fmax_ghz = rng.uniform(config.fmin_ghz, 2.3);
    const double total = 4.0 + rng.uniform(0.0, 2.0);
    const double slowdown = rng.uniform_int(0, 2) == 0 ? 0.0
                                                       : rng.uniform(0.0, 0.5);
    const EnergyBound hoisted =
        energy_saving_bound(times, total, slowdown, config);
    const EnergyBound loop =
        loop_energy_saving_bound(times, total, slowdown, config);
    EXPECT_EQ(hoisted.normalized_energy, loop.normalized_energy) << trial;
    EXPECT_EQ(hoisted.frequency_ghz, loop.frequency_ghz) << trial;
    EXPECT_EQ(hoisted.predicted_time, loop.predicted_time) << trial;
  }
}

}  // namespace
}  // namespace pals
