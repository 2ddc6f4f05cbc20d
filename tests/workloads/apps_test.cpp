#include "workloads/apps.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <variant>

#include "core/pipeline.hpp"
#include "replay/replay.hpp"
#include "trace/io.hpp"
#include "trace/transform.hpp"
#include "util/error.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

WorkloadConfig small_config(Rank ranks, double target_lb) {
  WorkloadConfig c;
  c.ranks = ranks;
  c.iterations = 3;
  c.target_lb = target_lb;
  return c;
}

using Factory = Trace (*)(const WorkloadConfig&);

struct AppCase {
  const char* name;
  Factory factory;
  double target_lb;
};

// Without a printer gtest lists the parameter as its raw bytes, pointers
// included, so the listed test names would change from run to run.
void PrintTo(const AppCase& app, std::ostream* os) { *os << app.name; }

class AppGenerator : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppGenerator, ProducesValidReplayableTrace) {
  const AppCase& app = GetParam();
  const Trace t = app.factory(small_config(16, app.target_lb));
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.n_ranks(), 16);
  EXPECT_EQ(t.iteration_count(), 3u);
  const ReplayResult r = replay(t, ReplayConfig{});
  EXPECT_GT(r.makespan, 0.0);
}

TEST_P(AppGenerator, LoadBalanceMatchesTarget) {
  const AppCase& app = GetParam();
  const Trace t = app.factory(small_config(16, app.target_lb));
  EXPECT_NEAR(load_balance(t.computation_times()), app.target_lb, 0.03)
      << app.name;
}

TEST_P(AppGenerator, DeterministicForSameConfig) {
  const AppCase& app = GetParam();
  const Trace a = app.factory(small_config(16, app.target_lb));
  const Trace b = app.factory(small_config(16, app.target_lb));
  EXPECT_EQ(a, b);
}

TEST_P(AppGenerator, SeedChangesJitterNotStructure) {
  const AppCase& app = GetParam();
  WorkloadConfig c1 = small_config(16, app.target_lb);
  WorkloadConfig c2 = c1;
  c2.seed = c1.seed + 99;
  const Trace a = app.factory(c1);
  const Trace b = app.factory(c2);
  EXPECT_EQ(a.total_events(), b.total_events());
  EXPECT_NE(a, b);
}

TEST_P(AppGenerator, ComputeScaleScalesComputation) {
  const AppCase& app = GetParam();
  WorkloadConfig c1 = small_config(16, app.target_lb);
  WorkloadConfig c2 = c1;
  c2.compute_scale = 2.0;
  const Trace a = app.factory(c1);
  const Trace b = app.factory(c2);
  EXPECT_NEAR(b.computation_time(0), 2.0 * a.computation_time(0), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppGenerator,
    ::testing::Values(AppCase{"cg", make_cg, 0.97},
                      AppCase{"mg", make_mg, 0.94},
                      AppCase{"is", make_is, 0.45},
                      AppCase{"bt-mz", make_bt_mz, 0.36},
                      AppCase{"specfem3d", make_specfem3d, 0.92},
                      AppCase{"wrf", make_wrf, 0.90},
                      AppCase{"pepc", make_pepc, 0.76},
                      AppCase{"lu", make_lu, 0.93},
                      AppCase{"ft", make_ft, 0.98}),
    [](const ::testing::TestParamInfo<AppCase>& p) {
      std::string name = p.param.name;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Pepc, HasTwoPhasesWithOpposingImbalance) {
  const Trace t = make_pepc(small_config(32, 0.7612));
  const auto phases = t.phases();
  ASSERT_EQ(phases.size(), 2u);
  // Per-phase per-rank times are negatively correlated: the rank heaviest
  // in phase 0 is light in phase 1.
  std::vector<double> p0, p1;
  for (Rank r = 0; r < t.n_ranks(); ++r) {
    p0.push_back(t.computation_time(r, 0));
    p1.push_back(t.computation_time(r, 1));
  }
  const auto heaviest0 = static_cast<std::size_t>(
      std::max_element(p0.begin(), p0.end()) - p0.begin());
  const auto heaviest1 = static_cast<std::size_t>(
      std::max_element(p1.begin(), p1.end()) - p1.begin());
  EXPECT_NE(heaviest0, heaviest1);
  // Phase 0 (tree build) is the strongly imbalanced phase; a rank-level
  // frequency chosen from *total* load cannot balance both phases.
  EXPECT_LT(load_balance(p0), load_balance(t.computation_times()) + 0.01);
  EXPECT_GT(load_balance(p1), 0.7);
}

TEST(AmrDrift, EveryIterationImbalancedTotalsBalanced) {
  WorkloadConfig c;
  c.ranks = 16;
  c.iterations = 16;
  c.target_lb = 0.5;
  const Trace t = make_amr_drift(c);
  const auto per_iteration = iteration_computation_times(t);
  for (const auto& iteration : per_iteration)
    EXPECT_NEAR(load_balance(iteration), 0.5, 0.05);
  // The hot spot visits every rank: totals are nearly balanced.
  EXPECT_GT(load_balance(t.computation_times()), 0.9);
}

TEST(AmrDrift, HotSpotMoves) {
  WorkloadConfig c;
  c.ranks = 8;
  c.iterations = 8;
  c.target_lb = 0.6;
  const Trace t = make_amr_drift(c);
  const auto per_iteration = iteration_computation_times(t);
  const auto hottest = [](const std::vector<Seconds>& times) {
    return std::max_element(times.begin(), times.end()) - times.begin();
  };
  EXPECT_NE(hottest(per_iteration.front()), hottest(per_iteration.back()));
}

TEST(AmrDrift, ReplaysCleanly) {
  WorkloadConfig c;
  c.ranks = 8;
  c.iterations = 4;
  c.target_lb = 0.6;
  EXPECT_NO_THROW(replay(make_amr_drift(c), ReplayConfig{}));
}

TEST(Workloads, OddRankCountsWork) {
  for (const Rank n : {3, 5, 7, 9}) {
    const Trace t = make_wrf(small_config(n, 0.9));
    EXPECT_NO_THROW(replay(t, ReplayConfig{})) << n << " ranks";
  }
}

TEST(Workloads, TwoRanksWork) {
  // Two-rank shapes cannot reach deep imbalance (the heavy rank alone
  // fixes the max), so ask for a mild target.
  for (Factory f : {make_cg, make_mg, make_is, make_bt_mz, make_specfem3d,
                    make_wrf, make_pepc, make_lu, make_ft}) {
    const Trace t = f(small_config(2, 0.92));
    EXPECT_NO_THROW(replay(t, ReplayConfig{}));
  }
}

TEST(Lu, WavefrontPipelinesAcrossTheGrid) {
  WorkloadConfig c = small_config(16, 0.95);
  const ReplayResult r = replay(make_lu(c), ReplayConfig{});
  // The forward wave: the far corner cannot start computing until the
  // origin corner's block is done and has propagated down the diagonal.
  const auto first_compute = [&](Rank rank) {
    for (const StateInterval& iv : r.timeline.intervals(rank))
      if (iv.state == RankState::kCompute) return iv;
    return StateInterval{};
  };
  EXPECT_GE(first_compute(15).begin, first_compute(0).end);
  // Both corners spend real time blocked in receives (the return wave for
  // rank 0, the forward wave for rank 15).
  EXPECT_GT(r.timeline.state_time(0, RankState::kRecv), 0.0);
  EXPECT_GT(r.timeline.state_time(15, RankState::kRecv), 0.0);
}

TEST(Ft, AlltoallDominatesCommunication) {
  WorkloadConfig c = small_config(16, 0.98);
  const ReplayResult r = replay(make_ft(c), ReplayConfig{});
  // No point-to-point traffic at all: everything is collective.
  EXPECT_EQ(r.point_to_point_messages, 0u);
  EXPECT_EQ(r.collective_operations, 3u * 3u);  // 3 per iteration
}

TEST(Workloads, ConfigValidation) {
  WorkloadConfig c;
  c.ranks = 0;
  EXPECT_THROW(make_cg(c), Error);
  c = WorkloadConfig{};
  c.iterations = 0;
  EXPECT_THROW(make_cg(c), Error);
  c = WorkloadConfig{};
  c.target_lb = 0.0;
  EXPECT_THROW(make_cg(c), Error);
  c = WorkloadConfig{};
  c.jitter = 0.7;
  EXPECT_THROW(make_cg(c), Error);
}

TEST(Factorization, ThreeDimensional) {
  const Grid3D g32 = factor_3d(32);
  EXPECT_EQ(g32.px * g32.py * g32.pz, 32);
  const Grid3D g64 = factor_3d(64);
  EXPECT_EQ(g64.px, 4);
  EXPECT_EQ(g64.py, 4);
  EXPECT_EQ(g64.pz, 4);
  const Grid3D g7 = factor_3d(7);
  EXPECT_EQ(g7.px * g7.py * g7.pz, 7);
}

TEST(Factorization, TwoDimensional) {
  const Grid2D g32 = factor_2d(32);
  EXPECT_EQ(g32.px * g32.py, 32);
  EXPECT_GE(g32.px, g32.py);
  const Grid2D g36 = factor_2d(36);
  EXPECT_EQ(g36.px, 6);
  EXPECT_EQ(g36.py, 6);
}

TEST(Registry, HasAllTwelvePaperInstances) {
  const auto instances = paper_benchmarks(2);
  ASSERT_EQ(instances.size(), 12u);
  EXPECT_EQ(instances[0].name, "BT-MZ-32");
  EXPECT_EQ(instances[11].name, "WRF-128");
  for (const auto& inst : instances) {
    EXPECT_GT(inst.paper_lb, 0.0);
    EXPECT_GT(inst.paper_pe, 0.0);
    EXPECT_LE(inst.paper_pe, inst.paper_lb + 1e-9);
  }
}

TEST(Registry, InstancesBuildMatchingTraces) {
  const auto inst = benchmark_by_name("IS-32", 2);
  ASSERT_TRUE(inst.has_value());
  const Trace t = inst->make();
  EXPECT_EQ(t.n_ranks(), 32);
  EXPECT_NEAR(load_balance(t.computation_times()), inst->paper_lb, 0.03);
}

TEST(Registry, UnknownNameIsEmpty) {
  EXPECT_FALSE(benchmark_by_name("LINPACK-9000").has_value());
}

TEST(Registry, Figure2SubsetHasFiveApps) {
  EXPECT_EQ(figure2_benchmarks(2).size(), 5u);
}

TEST(Registry, FactoryLookup) {
  EXPECT_NO_THROW(workload_factory("pepc"));
  EXPECT_THROW(workload_factory("doom"), Error);
}

/// Once a rank's first iteration begins, none of its events may lie
/// between an iteration-end marker and the next begin marker, or after
/// its last end marker. The scaled replay stretches and prices such a
/// burst at the fallback gears, so a shipped trace that placed compute
/// there would change every iteration-schedule result.
void expect_events_inside_iterations(const Trace& trace,
                                     const std::string& label) {
  for (Rank r = 0; r < trace.n_ranks(); ++r) {
    bool outside = false;  // after an end marker, before the next begin
    const auto events = trace.events(r);
    for (std::size_t k = 0; k < events.size(); ++k) {
      const auto* marker = std::get_if<MarkerEvent>(&events[k]);
      if (marker != nullptr && marker->kind == MarkerKind::kIterationBegin)
        outside = false;
      else if (marker != nullptr && marker->kind == MarkerKind::kIterationEnd)
        outside = true;
      else
        EXPECT_FALSE(outside) << label << " rank " << r << " event " << k
                              << " (" << to_string(events[k])
                              << ") lies outside every iteration";
    }
  }
}

TEST(IterationMarkers, NoShippedTracePlacesEventsBetweenIterations) {
  for (const char* family : {"cg", "mg", "is", "bt-mz", "specfem3d", "wrf",
                             "pepc", "amr-drift", "lu", "ft"}) {
    const Trace trace = workload_factory(family)(small_config(8, 0.8));
    ASSERT_GT(trace.iteration_count(), 0u) << family;
    expect_events_inside_iterations(trace, family);
  }
  for (const BenchmarkInstance& inst : paper_benchmarks(2))
    expect_events_inside_iterations(inst.make(), inst.name);
  std::size_t examples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(PALS_SOURCE_DIR) / "examples" / "traces")) {
    if (entry.path().extension() != ".palst") continue;
    expect_events_inside_iterations(read_trace_file(entry.path().string()),
                                    entry.path().filename().string());
    ++examples;
  }
  EXPECT_GT(examples, 0u);
}

}  // namespace
}  // namespace pals
