#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "analysis/experiments.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

/// Bulk-synchronous trace: `iterations` of per-rank compute (weights ·
/// base) followed by a tiny allreduce.
Trace bsp_trace(const std::vector<double>& weights, int iterations = 5,
                double base = 0.1) {
  Trace t(static_cast<Rank>(weights.size()));
  for (Rank r = 0; r < t.n_ranks(); ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < iterations; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(base * weights[static_cast<std::size_t>(r)])
          .collective(CollectiveOp::kAllreduce, 8)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  return t;
}

PipelineConfig paper_config(const GearSet& set,
                            Algorithm algorithm = Algorithm::kMax) {
  PipelineConfig c;
  c.algorithm.algorithm = algorithm;
  c.algorithm.gear_set = set;
  c.algorithm.beta = 0.5;
  c.power.beta = 0.5;
  return c;
}

const std::vector<double> kImbalanced{0.2, 0.5, 0.8, 1.0};
const std::vector<double> kBalanced{1.0, 1.0, 1.0, 1.0};

TEST(Pipeline, ImbalancedTraceSavesEnergyWithoutTimePenalty) {
  const PipelineResult r = run_pipeline(
      bsp_trace(kImbalanced), paper_config(paper_limited_continuous()));
  EXPECT_LT(r.normalized_energy(), 0.85);
  EXPECT_NEAR(r.normalized_time(), 1.0, 0.02);
  EXPECT_LT(r.normalized_edp(), 0.9);
}

TEST(Pipeline, BalancedTraceSavesNothingUnderMax) {
  const PipelineResult r = run_pipeline(
      bsp_trace(kBalanced), paper_config(paper_limited_continuous()));
  EXPECT_NEAR(r.normalized_energy(), 1.0, 0.01);
  EXPECT_NEAR(r.normalized_time(), 1.0, 1e-9);
}

TEST(Pipeline, LoadBalanceMatchesDefinition) {
  const PipelineResult r = run_pipeline(
      bsp_trace(kImbalanced), paper_config(paper_limited_continuous()));
  // LB = mean/max of weights = 2.5/4 / 1 = 0.625.
  EXPECT_NEAR(r.load_balance, 0.625, 0.01);
  EXPECT_GT(r.parallel_efficiency, 0.0);
  EXPECT_LE(r.parallel_efficiency, r.load_balance + 1e-9);
}

TEST(Pipeline, MaxNeverOverclocks) {
  const PipelineResult r = run_pipeline(
      bsp_trace(kImbalanced), paper_config(paper_limited_continuous()));
  EXPECT_DOUBLE_EQ(r.overclocked_fraction, 0.0);
  for (const Gear& g : r.assignment.gears)
    EXPECT_LE(g.frequency_ghz, 2.3 + 1e-12);
}

TEST(Pipeline, AvgWithOverclockReducesTime) {
  const PipelineResult r = run_pipeline(
      bsp_trace(kImbalanced),
      paper_config(paper_limited_continuous().with_fmax_scaled(1.2),
                   Algorithm::kAvg));
  EXPECT_LT(r.normalized_time(), 1.0);
  EXPECT_GT(r.overclocked_fraction, 0.0);
  EXPECT_LT(r.normalized_energy(), 1.0);
}

TEST(Pipeline, AvgDiscreteUsesOverclockGear) {
  const PipelineResult r =
      run_pipeline(bsp_trace(kImbalanced),
                   paper_config(paper_avg_discrete(), Algorithm::kAvg));
  EXPECT_GT(r.overclocked_fraction, 0.0);
  EXPECT_LT(r.normalized_time(), 1.0 + 1e-9);
}

TEST(Pipeline, MaxBeatsAvgOnEnergyAvgBeatsMaxOnTime) {
  const Trace t = bsp_trace(kImbalanced);
  const PipelineResult max_r =
      run_pipeline(t, paper_config(paper_limited_continuous()));
  const PipelineResult avg_r = run_pipeline(
      t, paper_config(paper_limited_continuous().with_fmax_scaled(1.2),
                      Algorithm::kAvg));
  EXPECT_LE(max_r.normalized_energy(), avg_r.normalized_energy() + 1e-9);
  EXPECT_LE(avg_r.normalized_time(), max_r.normalized_time() + 1e-9);
}

TEST(Pipeline, MoreGearsNeverHurtEnergy) {
  const Trace t = bsp_trace(kImbalanced);
  double previous = 2.0;
  for (const int n : {2, 4, 6, 10, 15}) {
    const PipelineResult r = run_pipeline(t, paper_config(paper_uniform(n)));
    EXPECT_LE(r.normalized_energy(), previous + 0.02) << n << " gears";
    previous = r.normalized_energy();
  }
}

TEST(Pipeline, SixGearsCloseToContinuous) {
  const Trace t = bsp_trace(kImbalanced);
  const double continuous =
      run_pipeline(t, paper_config(paper_limited_continuous()))
          .normalized_energy();
  const double six =
      run_pipeline(t, paper_config(paper_uniform(6))).normalized_energy();
  EXPECT_NEAR(six, continuous, 0.08);
}

TEST(Pipeline, LowerBetaSavesMoreEnergyForImbalanced) {
  // Lower beta = more memory bound = frequency can drop further for the
  // same target time (paper Fig. 5).
  const Trace t = bsp_trace(kImbalanced);
  PipelineConfig lo = paper_config(paper_limited_continuous());
  set_beta(lo, 0.3);
  PipelineConfig hi = paper_config(paper_limited_continuous());
  set_beta(hi, 1.0);
  EXPECT_LT(run_pipeline(t, lo).normalized_energy(),
            run_pipeline(t, hi).normalized_energy());
}

TEST(Pipeline, HigherStaticFractionShrinksSavings) {
  const Trace t = bsp_trace(kImbalanced);
  PipelineConfig lo = paper_config(paper_uniform(6));
  lo.power.static_fraction = 0.1;
  PipelineConfig hi = paper_config(paper_uniform(6));
  hi.power.static_fraction = 0.8;
  const double save_lo = 1.0 - run_pipeline(t, lo).normalized_energy();
  const double save_hi = 1.0 - run_pipeline(t, hi).normalized_energy();
  EXPECT_GT(save_lo, save_hi);
}

TEST(Pipeline, PerPhaseConfigRequiresPhaseLabels) {
  PipelineConfig c = paper_config(paper_limited_continuous());
  c.per_phase = true;
  EXPECT_THROW(run_pipeline(bsp_trace(kImbalanced), c), Error);
}

/// Two-phase trace with opposing imbalance (PEPC-like).
Trace two_phase_trace() {
  const std::vector<double> w0{0.2, 1.0};
  const std::vector<double> w1{1.0, 0.2};
  Trace t(2);
  for (Rank r = 0; r < 2; ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < 4; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(0.1 * w0[static_cast<std::size_t>(r)], 0)
          .collective(CollectiveOp::kAllgather, 1024)
          .compute(0.1 * w1[static_cast<std::size_t>(r)], 1)
          .collective(CollectiveOp::kAllreduce, 8)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  return t;
}

TEST(Pipeline, SingleSettingStretchesTwoPhaseTrace) {
  // Both ranks have equal totals -> MAX assigns fmax everywhere and the
  // time stays put; but an *imbalanced-total* two-phase trace stretches.
  Trace t(2);
  const std::vector<double> w0{0.2, 0.6};
  const std::vector<double> w1{0.7, 0.2};
  for (Rank r = 0; r < 2; ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < 4; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(0.1 * w0[static_cast<std::size_t>(r)], 0)
          .collective(CollectiveOp::kAllgather, 1024)
          .compute(0.1 * w1[static_cast<std::size_t>(r)], 1)
          .collective(CollectiveOp::kAllreduce, 8)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  const PipelineResult single =
      run_pipeline(t, paper_config(paper_limited_continuous()));
  // Rank totals: 0.9 vs 0.8 -> rank 1 is slowed; but rank 1 dominates
  // phase 0, so phase 0 stretches beyond its original span.
  EXPECT_GT(single.normalized_time(), 1.02);

  PipelineConfig per_phase = paper_config(paper_limited_continuous());
  per_phase.per_phase = true;
  const PipelineResult phased = run_pipeline(t, per_phase);
  EXPECT_LT(phased.normalized_time(), single.normalized_time());
}

TEST(Pipeline, PerPhaseAssignsPerPhaseFrequencies) {
  PipelineConfig c = paper_config(paper_limited_continuous());
  c.per_phase = true;
  const PipelineResult r = run_pipeline(two_phase_trace(), c);
  ASSERT_EQ(r.schedule.key, SegmentKey::kPhase);
  ASSERT_EQ(r.schedule.rows.size(), 2u);
  EXPECT_EQ(r.schedule.phases, (std::vector<std::int32_t>{0, 1}));
  // Opposing imbalance: each rank is heavy in exactly one phase.
  EXPECT_NEAR(r.schedule.rows[0][1].frequency_ghz, 2.3, 1e-9);
  EXPECT_NEAR(r.schedule.rows[1][0].frequency_ghz, 2.3, 1e-9);
  EXPECT_LT(r.schedule.rows[0][0].frequency_ghz, 2.3);
  EXPECT_LT(r.schedule.rows[1][1].frequency_ghz, 2.3);
}

TEST(Pipeline, ConfigValidationCatchesBetaMismatch) {
  PipelineConfig c = paper_config(paper_limited_continuous());
  c.algorithm.beta = 0.3;  // power.beta still 0.5
  EXPECT_THROW(run_pipeline(bsp_trace(kBalanced), c), Error);
}

TEST(Pipeline, ConfigValidationCatchesReferenceMismatch) {
  PipelineConfig c = paper_config(paper_limited_continuous());
  c.power.reference = Gear{2.0, 1.4};
  EXPECT_THROW(run_pipeline(bsp_trace(kBalanced), c), Error);
}

TEST(Metrics, LoadBalanceAndParallelEfficiency) {
  const std::vector<Seconds> times{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(load_balance(times), 10.0 / 16.0, 1e-12);
  EXPECT_NEAR(parallel_efficiency(times, 5.0), 10.0 / 20.0, 1e-12);
  EXPECT_THROW(load_balance({}), Error);
  EXPECT_THROW(parallel_efficiency(times, 0.0), Error);
}

TEST(Metrics, PerfectBalanceIsOne) {
  const std::vector<Seconds> times{2.0, 2.0};
  EXPECT_DOUBLE_EQ(load_balance(times), 1.0);
}

}  // namespace
}  // namespace pals
