// The sweep engine's core guarantee: the merged rows — and the CSV
// rendered from them — are byte-identical for every thread count,
// because each scenario computes on private state and lands in a
// pre-allocated slot in canonical grid order.
#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scratch_dir.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

/// Small but non-trivial grid: 2 workloads x 2 gear sets x 2 algorithms
/// = 8 scenarios, with uneven per-scenario costs.
SweepGrid small_grid() {
  SweepGrid grid;
  grid.workloads = {"cg:8:0.9:2", "is:8:0.8:2"};
  grid.gear_sets = {"uniform-4", "avg-discrete"};
  grid.algorithms = {Algorithm::kMax, Algorithm::kAvg};
  grid.iterations = 2;
  return grid;
}

SweepResult run_with_jobs(int jobs) {
  SweepOptions options;
  options.jobs = jobs;
  return run_sweep(small_grid(), options);
}

TEST(SweepDeterminism, OneAndEightJobsProduceByteIdenticalCsv) {
  const SweepResult serial = run_with_jobs(1);
  const SweepResult parallel = run_with_jobs(8);
  EXPECT_EQ(serial.stats.jobs, 1);
  EXPECT_EQ(parallel.stats.jobs, 8);
  EXPECT_EQ(rows_to_csv(serial.rows), rows_to_csv(parallel.rows));
}

TEST(SweepDeterminism, AggregatesAreExactlyEqualAcrossJobCounts) {
  const SweepResult serial = run_with_jobs(1);
  const SweepResult parallel = run_with_jobs(8);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const ExperimentRow& a = serial.rows[i];
    const ExperimentRow& b = parallel.rows[i];
    EXPECT_EQ(a.instance, b.instance);
    EXPECT_EQ(a.variant, b.variant);
    // Exact, not approximate: identical operations on identical inputs.
    EXPECT_EQ(a.load_balance, b.load_balance);
    EXPECT_EQ(a.parallel_efficiency, b.parallel_efficiency);
    EXPECT_EQ(a.normalized_energy, b.normalized_energy);
    EXPECT_EQ(a.normalized_time, b.normalized_time);
    EXPECT_EQ(a.normalized_edp, b.normalized_edp);
    EXPECT_EQ(a.overclocked_fraction, b.overclocked_fraction);
  }
}

TEST(SweepProgress, ProgressStreamGetsWholeLinesEndingComplete) {
  std::ostringstream progress;
  SweepOptions options;
  options.jobs = 4;
  options.progress_stream = &progress;
  options.progress_interval_seconds = 0.01;
  const SweepResult result = run_sweep(small_grid(), options);

  std::vector<std::string> lines;
  std::istringstream in(progress.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());
  const std::string total = std::to_string(result.rows.size());
  for (const std::string& line : lines) {
    EXPECT_TRUE(line.starts_with("sweep: ")) << line;
    EXPECT_NE(line.find("/" + total + " scenarios, elapsed "),
              std::string::npos)
        << line;
  }
  // The final line (printed after the workers join) reports completion.
  EXPECT_TRUE(lines.back().starts_with("sweep: " + total + "/" + total))
      << lines.back();
}

TEST(SweepProgress, NoProgressStreamMeansNoOutput) {
  SweepOptions options;
  options.jobs = 2;
  ASSERT_EQ(options.progress_stream, nullptr);  // off by default
  run_sweep(small_grid(), options);  // must not crash touching a null stream
}

TEST(SweepDeterminism, RowsFollowCanonicalGridOrder) {
  const SweepResult result = run_with_jobs(8);
  ASSERT_EQ(result.rows.size(), 8u);
  // Workload-major, then gear set, then algorithm.
  EXPECT_EQ(result.rows[0].instance, "cg:8:0.9:2");
  EXPECT_EQ(result.rows[0].variant, "uniform-4");
  EXPECT_EQ(result.rows[1].variant, "AVG uniform-4");
  EXPECT_EQ(result.rows[2].variant, "avg-discrete");
  EXPECT_EQ(result.rows[3].variant, "AVG avg-discrete");
  EXPECT_EQ(result.rows[4].instance, "is:8:0.8:2");
}

TEST(SweepDeterminism, BaselineIsCachedPerWorkload) {
  const SweepResult result = run_with_jobs(4);
  EXPECT_EQ(result.stats.scenarios, 8u);
  EXPECT_EQ(result.stats.workloads, 2u);  // 2 unique workloads
  EXPECT_EQ(result.stats.baseline_cache_misses, 2u);
  EXPECT_EQ(result.stats.baseline_cache_hits, 6u);
  EXPECT_DOUBLE_EQ(result.stats.baseline_cache_hit_rate, 6.0 / 8.0);
  ASSERT_EQ(result.scenario_seconds.size(), 8u);
}

TEST(SweepDeterminism, SharedTraceCacheMatchesPrivateCache) {
  TraceCache cache;
  SweepOptions shared;
  shared.jobs = 4;
  shared.trace_cache = &cache;
  const SweepResult with_shared = run_sweep(small_grid(), shared);
  const SweepResult with_private = run_with_jobs(1);
  EXPECT_EQ(rows_to_csv(with_shared.rows), rows_to_csv(with_private.rows));
}

TEST(SweepDeterminism, ExplicitLabelOverridesDerivedVariant) {
  std::vector<Scenario> scenarios = {
      Scenario{"cg:8:0.9:2", "uniform-4", Algorithm::kMax, 0.5, "my label"}};
  const SweepResult result = run_sweep(scenarios);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].variant, "my label");
}

TEST(SweepDeterminism, NonDefaultBetaLandsInDerivedVariant) {
  std::vector<Scenario> scenarios = {
      Scenario{"cg:8:0.9:2", "uniform-4", Algorithm::kMax, 0.7, ""}};
  const SweepResult result = run_sweep(scenarios);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].variant, "uniform-4 beta=0.70");
}

TEST(SweepGridFile, ParsesAllKeys) {
  const std::string path = (scratch_dir() / "sweep_grid_test.grid").string();
  {
    std::ofstream out(path);
    out << "# comment\n"
        << "workloads = CG-32, lu:16:0.9\n"
        << "gear_sets = uniform-6, avg-discrete\n"
        << "algorithms = max, avg\n"
        << "betas = 0.4, 0.8\n"
        << "iterations = 3\n";
  }
  const SweepGrid grid = SweepGrid::from_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(grid.workloads,
            (std::vector<std::string>{"CG-32", "lu:16:0.9"}));
  EXPECT_EQ(grid.gear_sets,
            (std::vector<std::string>{"uniform-6", "avg-discrete"}));
  ASSERT_EQ(grid.algorithms.size(), 2u);
  EXPECT_EQ(grid.algorithms[0], Algorithm::kMax);
  EXPECT_EQ(grid.algorithms[1], Algorithm::kAvg);
  EXPECT_EQ(grid.betas, (std::vector<double>{0.4, 0.8}));
  EXPECT_EQ(grid.iterations, 3);
  EXPECT_EQ(grid.expand().size(), 2u * 2u * 2u * 2u);
}

TEST(SweepGridFile, DefaultsAlgorithmAndBetaWhenOmitted) {
  const std::string path = (scratch_dir() / "sweep_grid_min.grid").string();
  {
    std::ofstream out(path);
    out << "workloads = CG-32\ngear_sets = uniform-6\n";
  }
  const SweepGrid grid = SweepGrid::from_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(grid.algorithms.size(), 1u);
  EXPECT_EQ(grid.algorithms[0], Algorithm::kMax);
  EXPECT_EQ(grid.betas, std::vector<double>{0.5});
  EXPECT_EQ(grid.iterations, 10);
}

TEST(SweepGridFile, RejectsUnknownKeysAndBadValues) {
  const auto write_and_parse = [](const std::string& body) {
    const std::string path = (scratch_dir() / "sweep_grid_bad.grid").string();
    {
      std::ofstream out(path);
      out << body;
    }
    SweepGrid grid;
    try {
      grid = SweepGrid::from_file(path);
    } catch (...) {
      std::remove(path.c_str());
      throw;
    }
    std::remove(path.c_str());
    return grid;
  };
  EXPECT_THROW(
      write_and_parse("workloads = CG-32\ngear_sets = uniform-6\ntypo = 1\n"),
      Error);
  EXPECT_THROW(write_and_parse("gear_sets = uniform-6\n"), Error);
  EXPECT_THROW(write_and_parse("workloads = CG-32\n"), Error);
  EXPECT_THROW(write_and_parse("workloads = CG-32\ngear_sets = uniform-6\n"
                               "algorithms = warp\n"),
               Error);
  EXPECT_THROW(write_and_parse("workloads = CG-32\ngear_sets = uniform-6\n"
                               "betas = 1.5\n"),
               Error);
}

TEST(SweepErrors, UnknownWorkloadNamesScenario) {
  SweepGrid grid;
  grid.workloads = {"NOPE-99"};
  grid.gear_sets = {"uniform-6"};
  try {
    run_sweep(grid);
    FAIL() << "expected unknown-workload error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("NOPE-99"), std::string::npos);
  }
}

TEST(SweepErrors, BadInlineSpecRejected) {
  SweepGrid grid;
  grid.gear_sets = {"uniform-6"};
  for (const char* bad :
       {"lu:0:0.9", "lu:8:1.5", "lu:8:0.9:0", "lu:8", "warp9:8:0.9"}) {
    grid.workloads = {bad};
    EXPECT_THROW(run_sweep(grid), Error) << bad;
  }
}

TEST(SweepErrors, UnknownGearSetRejectedBeforeRunning) {
  SweepGrid grid;
  grid.workloads = {"cg:8:0.9:2"};
  grid.gear_sets = {"warp-9"};
  EXPECT_THROW(run_sweep(grid), Error);
}

TEST(SweepErrors, EmptyScenarioListRejected) {
  EXPECT_THROW(run_sweep(std::vector<Scenario>{}), Error);
}

TEST(SweepErrors, PlatformSettingRejected) {
  // One baseline per workload: a cell that changes the platform would
  // be scaled against the wrong baseline.
  Scenario scenario{"cg:8:0.9:2", "uniform-4"};
  scenario.settings = {{"latency", 5e-6}};
  try {
    run_sweep(std::vector<Scenario>{scenario});
    FAIL() << "expected the platform setting to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cg:8:0.9:2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("platform"), std::string::npos)
        << e.what();
  }
}

TEST(SweepSettings, PowerSettingMatchesBaseConfiguration) {
  // A per-cell setting gives the row a sweep with that value in its base
  // configuration gives.
  Scenario scenario{"cg:8:0.9:2", "uniform-4"};
  scenario.settings = {{"static_fraction", 0.6}};
  SweepOptions overlaid;
  apply_setting(overlaid.base, "static_fraction", 0.6);
  const std::vector<Scenario> plain = {Scenario{"cg:8:0.9:2", "uniform-4"}};
  const std::string expected = rows_to_csv(run_sweep(plain, overlaid).rows);
  EXPECT_EQ(rows_to_csv(run_sweep(std::vector<Scenario>{scenario}).rows),
            expected);
  EXPECT_NE(rows_to_csv(run_sweep(plain).rows), expected);
}

TEST(SweepSettings, SettingsFreeHashIsUnchanged) {
  // Settings enter the journal hash only when present, so journals of
  // settings-free sweeps written before settings existed still resume.
  const std::vector<Scenario> scenarios = small_grid().expand();
  const SweepOptions options;
  EXPECT_EQ(sweep_config_hash(scenarios, options), "894782fcbc51252a");
  std::vector<Scenario> with_setting = scenarios;
  with_setting[0].settings = {{"static_fraction", 0.2}};
  EXPECT_NE(sweep_config_hash(with_setting, options),
            sweep_config_hash(scenarios, options));
}

TEST(ResolveWorkload, RegistryKeyCarriesIterationCount) {
  const WorkloadRef three = resolve_workload("CG-32", 3);
  const WorkloadRef ten = resolve_workload("CG-32", 10);
  EXPECT_EQ(three.key, "CG-32:3");
  EXPECT_EQ(ten.key, "CG-32:10");
  EXPECT_EQ(three.display, "CG-32");
  EXPECT_EQ(ten.display, "CG-32");
  // A registry instance and its resolved name share one cache entry.
  TraceCache cache;
  const Trace& by_instance = cache.get(*benchmark_by_name("CG-32", 2));
  const WorkloadRef two = resolve_workload("CG-32", 2);
  EXPECT_EQ(&cache.get(two.key, two.build), &by_instance);
  EXPECT_NE(&cache.get(three.key, three.build), &by_instance);
}

}  // namespace
}  // namespace pals
