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
  // Every key of the settings table, each off its default.
  const std::string path = (scratch_dir() / "pals_platform.cfg").string();
  {
    std::ofstream out(path);
    out << "# test platform\nlatency = 5e-6\nbandwidth = 1e9\n"
        << "eager_threshold = 4096\nbuses = 8\nlinks_per_node = 2\n"
        << "collective_scale = 1.5\nbeta = 0.7\nstatic_fraction = 0.4\n"
        << "activity_ratio = 1.8\nidle_scale = 0.6\n"
        << "transition_latency = 1e-4\ntransition_energy = 0.25\n"
        << "slack_threshold = 0.3\nhysteresis = 0.5\newma_alpha = 0.9\n";
  }
  PipelineConfig config = default_pipeline_config(paper_uniform(6));
  apply_config_file(config, path);
  const PlatformModel& platform = config.replay.platform;
  EXPECT_DOUBLE_EQ(platform.latency, 5e-6);
  EXPECT_DOUBLE_EQ(platform.bandwidth, 1e9);
  EXPECT_EQ(platform.eager_threshold, 4096u);
  EXPECT_EQ(platform.buses, 8);
  EXPECT_EQ(platform.links_per_node, 2);
  EXPECT_DOUBLE_EQ(platform.collective_scale, 1.5);
  EXPECT_DOUBLE_EQ(config.algorithm.beta, 0.7);
  EXPECT_DOUBLE_EQ(config.power.beta, 0.7);
  EXPECT_DOUBLE_EQ(config.power.static_fraction, 0.4);
  EXPECT_DOUBLE_EQ(config.power.activity_ratio, 1.8);
  EXPECT_DOUBLE_EQ(config.power.idle_scale, 0.6);
  EXPECT_DOUBLE_EQ(config.controller.transition_latency, 1e-4);
  EXPECT_DOUBLE_EQ(config.controller.transition_energy, 0.25);
  EXPECT_DOUBLE_EQ(config.controller.slack_threshold, 0.3);
  EXPECT_DOUBLE_EQ(config.controller.hysteresis, 0.5);
  EXPECT_DOUBLE_EQ(config.controller.ewma_alpha, 0.9);
  std::remove(path.c_str());
}

TEST(ConfigFile, RejectsIntegersThatWouldWrap) {
  // Negative, past the field's type, or not whole: each used to wrap or
  // truncate into a different machine instead of failing. Slot counts
  // past 4096 would size per-run allocations past the machine.
  const std::string path = (scratch_dir() / "pals_wrap.cfg").string();
  for (const char* line :
       {"eager_threshold = -4", "eager_threshold = 1e30",
        "buses = 4294967297", "links_per_node = 2.5", "buses = 4097",
        "links_per_node = 4097"}) {
    {
      std::ofstream out(path);
      out << line << "\n";
    }
    PipelineConfig config = default_pipeline_config(paper_uniform(6));
    EXPECT_THROW(apply_config_file(config, path), Error) << line;
  }
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
