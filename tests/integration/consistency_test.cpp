// Cross-module consistency: quantities computed independently by the
// algorithms, the trace transforms, the replay simulator and the power
// model must agree exactly.
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "core/system_energy.hpp"
#include "reference.hpp"
#include "workloads/apps.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

class Consistency : public ::testing::TestWithParam<const char*> {
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

TEST_P(Consistency, PredictedTimesMatchScaledReplayExactly) {
  // assignment.predicted_time is the algorithm's analytic forecast; the
  // scaled replay must reproduce it per rank (same β model applied via
  // the trace transform).
  const PipelineResult r =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(6)));
  for (Rank rank = 0; rank < trace().n_ranks(); ++rank) {
    const auto k = static_cast<std::size_t>(rank);
    EXPECT_NEAR(r.scaled_replay.compute_time[k],
                r.assignment.predicted_time[k],
                1e-9 * std::max(1.0, r.assignment.predicted_time[k]))
        << "rank " << rank;
  }
}

TEST_P(Consistency, BaselineComputeMatchesTraceSums) {
  const PipelineResult r =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(2)));
  for (Rank rank = 0; rank < trace().n_ranks(); ++rank) {
    EXPECT_NEAR(r.computation_time[static_cast<std::size_t>(rank)],
                trace().computation_time(rank), 1e-9)
        << "rank " << rank;
  }
}

TEST_P(Consistency, EnergyDecomposesAcrossRanks) {
  // total_energy == sum of rank_energy.
  const PipelineResult r =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(6)));
  const PowerModel pm(default_pipeline_config(paper_uniform(6)).power);
  double per_rank_sum = 0.0;
  for (Rank rank = 0; rank < trace().n_ranks(); ++rank) {
    per_rank_sum += rank_energy(
        pm, r.scaled_replay.timeline, rank,
        r.assignment.gears[static_cast<std::size_t>(rank)]);
  }
  EXPECT_NEAR(per_rank_sum, r.scaled_energy, 1e-6 * r.scaled_energy);
}

/// Σ series·dt of the scaled run, looked up through the run's own
/// schedule, must equal its CPU energy (the scaled energy without the
/// regulator's transition energy).
void expect_series_integrates(const Trace& trace,
                              const PipelineConfig& config) {
  const PipelineResult r = run_pipeline(trace, config);
  const PowerModel pm(config.power);
  const Seconds dt = r.scaled_time / 97.0;  // deliberately awkward bins
  const auto series =
      r.schedule.power_series(pm, r.scaled_replay.timeline, dt);
  double integrated = 0.0;
  for (const double p : series) integrated += p * dt;
  EXPECT_NEAR(integrated + r.schedule.transition_energy, r.scaled_energy,
              1e-6 * r.scaled_energy)
      << trace.name() << ", controller " << to_string(config.controller.kind)
      << (config.per_phase ? ", per phase" : "");
}

TEST_P(Consistency, PowerSeriesIntegratesToEnergy) {
  expect_series_integrates(trace(), default_pipeline_config(paper_uniform(6)));
}

// The same contract for the shapes whose gears differ from the whole-run
// assignment: per-phase gears on PEPC, and online controllers switching
// gears every iteration on a drifting hot spot.
TEST(ConsistencySchedules, PowerSeriesIntegratesToEnergyForEveryShape) {
  const auto pepc = benchmark_by_name("PEPC-128", 3);
  ASSERT_TRUE(pepc.has_value());
  PipelineConfig per_phase = default_pipeline_config(paper_uniform(6));
  per_phase.per_phase = true;
  expect_series_integrates(pepc->make(), per_phase);

  WorkloadConfig workload;
  workload.ranks = 16;
  workload.iterations = 12;
  workload.target_lb = 0.5;
  const Trace drift = make_amr_drift(workload);
  for (const ControllerKind kind :
       {ControllerKind::kDynamicMax, ControllerKind::kSlack}) {
    PipelineConfig controlled = default_pipeline_config(paper_uniform(6));
    controlled.controller.kind = kind;
    controlled.controller.transition_latency = 50e-6;
    controlled.controller.transition_energy = 0.01;
    expect_series_integrates(drift, controlled);
  }
}

TEST_P(Consistency, EnergyOptimalPipelineHonoursMaxContract) {
  const PipelineResult r = run_pipeline(
      trace(),
      default_pipeline_config(paper_uniform(6), Algorithm::kEnergyOptimalMax));
  // Under the paper's idle model EOPT == MAX, including the time contract.
  const PipelineResult max_r =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(6)));
  EXPECT_NEAR(r.normalized_energy(), max_r.normalized_energy(), 1e-9);
  EXPECT_NEAR(r.normalized_time(), max_r.normalized_time(), 1e-9);
}

TEST_P(Consistency, UniformSlowdownScalesComputeButNotLoadBalance) {
  // Halving every rank's speed doubles per-rank computation exactly and
  // leaves the load balance untouched; communication does not scale, so
  // the parallel efficiency can only go up.
  PipelineConfig config = default_pipeline_config(paper_uniform(6));
  const PipelineResult base = run_pipeline(trace(), config);
  config.replay.relative_speed.assign(
      static_cast<std::size_t>(trace().n_ranks()), 0.5);
  const PipelineResult slowed = run_pipeline(trace(), config);
  EXPECT_NEAR(slowed.load_balance, base.load_balance, 1e-9);
  for (Rank rank = 0; rank < trace().n_ranks(); ++rank) {
    const auto k = static_cast<std::size_t>(rank);
    EXPECT_NEAR(slowed.computation_time[k], 2.0 * base.computation_time[k],
                1e-9)
        << "rank " << rank;
  }
  EXPECT_GE(slowed.parallel_efficiency, base.parallel_efficiency - 1e-9);
}

TEST_P(Consistency, SystemEnergyInterpolatesCpuAndTime) {
  const PipelineResult r =
      run_pipeline(trace(), default_pipeline_config(paper_uniform(6)));
  SystemEnergyConfig config;
  const SystemView view = system_view(r, config);
  const double lo = std::min(view.normalized_cpu_energy,
                             view.normalized_time);
  const double hi = std::max(view.normalized_cpu_energy,
                             view.normalized_time);
  EXPECT_GE(view.normalized_system_energy, lo - 1e-9);
  EXPECT_LE(view.normalized_system_energy, hi + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Apps, Consistency,
                         ::testing::Values("BT-MZ-32", "CG-32", "IS-64",
                                           "SPECFEM3D-96", "WRF-128"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace pals
