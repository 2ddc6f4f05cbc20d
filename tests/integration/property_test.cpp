// Cross-cutting invariants of the full pipeline, parameterized over the
// paper's benchmark instances.
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

class PipelineInvariants : public ::testing::TestWithParam<const char*> {
protected:
  static TraceCache& cache() {
    static TraceCache instance;
    return instance;
  }
  const Trace& trace() {
    const auto inst = benchmark_by_name(GetParam(), 3);
    EXPECT_TRUE(inst.has_value());
    return cache().get(*inst);
  }
};

TEST_P(PipelineInvariants, MaxNeverIncreasesEnergy) {
  for (const GearSet& set :
       {paper_unlimited_continuous(), paper_limited_continuous(),
        paper_uniform(2), paper_uniform(6), paper_exponential(4)}) {
    const PipelineResult r =
        run_pipeline(trace(), default_pipeline_config(set));
    EXPECT_LE(r.normalized_energy(), 1.0 + 1e-6) << set.describe();
  }
}

TEST_P(PipelineInvariants, EdpIsEnergyTimesTime) {
  const PipelineResult r =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(6)));
  EXPECT_NEAR(r.normalized_edp(), r.normalized_energy() * r.normalized_time(),
              1e-12);
}

TEST_P(PipelineInvariants, ParallelEfficiencyBoundedByLoadBalance) {
  const PipelineResult r =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(6)));
  EXPECT_LE(r.parallel_efficiency, r.load_balance + 1e-9);
  EXPECT_GT(r.parallel_efficiency, 0.0);
  EXPECT_LE(r.load_balance, 1.0 + 1e-12);
}

TEST_P(PipelineInvariants, EnergyMonotoneInGearCount) {
  double previous = 10.0;
  for (const int gears : {2, 3, 4, 6, 8, 10, 15}) {
    const PipelineResult r = run_pipeline(
        trace(), default_pipeline_config(paper_uniform(gears)));
    EXPECT_LE(r.normalized_energy(), previous + 0.015) << gears;
    previous = r.normalized_energy();
  }
}

TEST_P(PipelineInvariants, MemoryBoundAppsSaveMoreEnergy) {
  // Paper Fig. 5: beta = 0 is fully memory-bound ("frequency does not
  // affect execution time"), so savings shrink as beta grows. Discrete
  // snapping can locally flip adjacent points, hence the small tolerance.
  double previous = -10.0;
  for (const double beta : {0.3, 0.5, 0.7, 1.0}) {
    PipelineConfig c = default_pipeline_config(paper_uniform(6));
    set_beta(c, beta);
    const PipelineResult r = run_pipeline(trace(), c);
    EXPECT_GE(r.normalized_energy(), previous - 0.03) << "beta " << beta;
    previous = r.normalized_energy();
  }
}

TEST_P(PipelineInvariants, SavingsShrinkWithStaticFraction) {
  double previous = -1.0;
  for (const double sf : {0.0, 0.2, 0.5, 0.7, 0.9}) {
    PipelineConfig c = default_pipeline_config(paper_uniform(6));
    c.power.static_fraction = sf;
    const PipelineResult r = run_pipeline(trace(), c);
    EXPECT_GE(r.normalized_energy(), previous - 1e-6) << "static " << sf;
    previous = r.normalized_energy();
  }
}

TEST_P(PipelineInvariants, ActivityRatioShiftsBaselineWaitCost) {
  // A higher compute:communication activity ratio makes the baseline's
  // wait time cheaper, so the DVFS execution (which converts waiting into
  // slow computation) looks relatively more expensive: normalized energy
  // is non-decreasing in the ratio.
  double previous = -10.0;
  for (const double ratio : {1.5, 2.0, 2.5, 3.0}) {
    PipelineConfig c = default_pipeline_config(paper_uniform(6));
    c.power.activity_ratio = ratio;
    const PipelineResult r = run_pipeline(trace(), c);
    EXPECT_GE(r.normalized_energy(), previous - 1e-6) << "ratio " << ratio;
    previous = r.normalized_energy();
  }
}

TEST_P(PipelineInvariants, OverclockedFractionWithinBounds) {
  const PipelineResult r = run_pipeline(
      trace(),
      default_pipeline_config(paper_avg_discrete(), Algorithm::kAvg));
  EXPECT_GE(r.overclocked_fraction, 0.0);
  EXPECT_LE(r.overclocked_fraction, 1.0);
}

TEST_P(PipelineInvariants, AvgTargetIsNeverAboveMaxTarget) {
  const PipelineResult max_r =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(6)));
  const PipelineResult avg_r = run_pipeline(
      trace(),
      default_pipeline_config(paper_avg_discrete(), Algorithm::kAvg));
  EXPECT_LE(avg_r.assignment.target_time,
            max_r.assignment.target_time + 1e-9);
}

TEST_P(PipelineInvariants, BaselineMetricsIndependentOfGearSet) {
  const PipelineResult a =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(2)));
  const PipelineResult b =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(15)));
  EXPECT_DOUBLE_EQ(a.load_balance, b.load_balance);
  EXPECT_DOUBLE_EQ(a.baseline_time, b.baseline_time);
  EXPECT_DOUBLE_EQ(a.baseline_energy, b.baseline_energy);
}

INSTANTIATE_TEST_SUITE_P(
    PaperInstances, PipelineInvariants,
    ::testing::Values("BT-MZ-32", "CG-32", "MG-32", "IS-32", "SPECFEM3D-32",
                      "WRF-32", "CG-64", "MG-64", "IS-64", "SPECFEM3D-96",
                      "PEPC-128", "WRF-128"),
    [](const ::testing::TestParamInfo<const char*>& p) {
      std::string name = p.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace pals
