#include "analysis/iteration_stats.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "analysis/experiments.hpp"
#include "scratch_dir.hpp"
#include "util/error.hpp"
#include "workloads/apps.hpp"

namespace pals {
namespace {

TEST(PearsonCorrelation, KnownValues) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> up{2.0, 4.0, 6.0};
  const std::vector<double> down{3.0, 2.0, 1.0};
  const std::vector<double> flat{5.0, 5.0, 5.0};
  EXPECT_NEAR(pearson_correlation(a, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(a, down), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pearson_correlation(a, flat), 0.0);
  EXPECT_THROW(pearson_correlation({}, {}), Error);
}

Trace steady(const std::vector<double>& weights, int iterations) {
  Trace t(static_cast<Rank>(weights.size()));
  for (Rank r = 0; r < t.n_ranks(); ++r) {
    TraceBuilder b(t, r);
    for (int i = 0; i < iterations; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(0.1 * weights[static_cast<std::size_t>(r)])
          .collective(CollectiveOp::kBarrier, 0)
          .marker(MarkerKind::kIterationEnd, i);
    }
  }
  return t;
}

TEST(IterationStats, SteadyImbalanceHasZeroDrift) {
  const IterationStats s = analyze_iterations(steady({0.3, 0.7, 1.0}, 5));
  EXPECT_EQ(s.iterations, 5u);
  EXPECT_NEAR(s.drift_index, 0.0, 1e-9);
  EXPECT_NEAR(s.total_load_balance, s.mean_iteration_load_balance, 1e-9);
  EXPECT_TRUE(s.static_assignment_sufficient());
}

TEST(IterationStats, DriftingWorkloadIsFlagged) {
  WorkloadConfig c;
  c.ranks = 16;
  c.iterations = 16;
  c.target_lb = 0.5;
  const IterationStats s = analyze_iterations(make_amr_drift(c));
  EXPECT_GT(s.drift_index, 0.5);
  EXPECT_LT(s.mean_iteration_load_balance, 0.6);
  EXPECT_GT(s.total_load_balance, 0.9);
  EXPECT_FALSE(s.static_assignment_sufficient());
}

TEST(IterationStats, SteadyWorkloadsPassTheSufficiencyCheck) {
  WorkloadConfig c;
  c.ranks = 16;
  c.iterations = 4;
  c.target_lb = 0.6;
  const IterationStats s = analyze_iterations(make_bt_mz(c));
  EXPECT_TRUE(s.static_assignment_sufficient(0.15));
}

TEST(IterationStats, RequiresIterationMarkers) {
  Trace t(2);
  TraceBuilder(t, 0).compute(1.0);
  TraceBuilder(t, 1).compute(1.0);
  EXPECT_THROW(analyze_iterations(t), Error);
}

TEST(ConfigFile, OverlaysOntoPipelineConfig) {
  const std::string path = (scratch_dir() / "pals_platform.cfg").string();
  {
    std::ofstream out(path);
    out << "# test platform\nlatency = 5e-6\nbandwidth = 1e9\n"
        << "buses = 8\nbeta = 0.7\nstatic_fraction = 0.4\n";
  }
  PipelineConfig config = default_pipeline_config(paper_uniform(6));
  apply_config_file(config, path);
  EXPECT_DOUBLE_EQ(config.replay.platform.latency, 5e-6);
  EXPECT_DOUBLE_EQ(config.replay.platform.bandwidth, 1e9);
  EXPECT_EQ(config.replay.platform.buses, 8);
  EXPECT_DOUBLE_EQ(config.algorithm.beta, 0.7);
  EXPECT_DOUBLE_EQ(config.power.beta, 0.7);
  EXPECT_DOUBLE_EQ(config.power.static_fraction, 0.4);
  std::remove(path.c_str());
}

TEST(ConfigFile, RejectsUnknownKeys) {
  const std::string path = (scratch_dir() / "pals_bad.cfg").string();
  {
    std::ofstream out(path);
    out << "latencyy = 1\n";
  }
  PipelineConfig config = default_pipeline_config(paper_uniform(6));
  EXPECT_THROW(apply_config_file(config, path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pals
