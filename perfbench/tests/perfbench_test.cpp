// The benchmark's own tests: the composed cell against the library's
// pipeline, the order statistics by hand, and the seeded generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "compose.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

SweepWorkload tiny_sweep() {
  pals::SweepGrid grid;
  grid.workloads = {"cg:8:0.8:3", "amr-drift:8:0.7:6"};
  grid.gear_sets = {"uniform-6", "avg-discrete"};
  grid.algorithms = {pals::Algorithm::kMax, pals::Algorithm::kAvg};
  grid.controllers = {"static", "slack"};
  grid.betas = {0.5};
  SweepWorkload workload;
  workload.scenarios = grid.expand();
  workload.iterations = 6;
  return workload;
}

TEST(ComposedCell, EqualsRunPipelineAndRunSweepRows) {
  const SweepWorkload workload = tiny_sweep();
  Tracer traced(true);
  const Pass composed = compose_sweep(workload, "", traced, true);
  pals::SweepOptions options;
  options.iterations = workload.iterations;
  const pals::SweepResult swept = pals::run_sweep(workload.scenarios, options);
  ASSERT_EQ(composed.rows.size(), workload.scenarios.size());
  ASSERT_EQ(swept.rows.size(), workload.scenarios.size());
  for (std::size_t i = 0; i < composed.rows.size(); ++i)
    EXPECT_EQ(composed.rows[i], pals::serve::csv_data_line(swept.rows[i]))
        << "cell " << i;
  EXPECT_EQ(composed.pipeline_mismatches, 0u);  // run_pipeline's own rows
  EXPECT_EQ(composed.call_seconds.size(), workload.scenarios.size());
  EXPECT_GT(composed.counts.controller_switches, 0u);
  EXPECT_FALSE(traced.seconds_of("replay.scaled").empty());
  EXPECT_FALSE(traced.seconds_of("core.controller").empty());
}

TEST(ComposedQuery, EqualsQueryEngineRows) {
  const ServeWorkload workload = serve_zipf(7);
  std::vector<std::string> lines;
  std::size_t key_changes = 0;
  const std::vector<Query> stream = workload.stream(200.0, 0.1, 1);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    lines.push_back(stream[i].line);
    if (i == 0 || stream[i].key != stream[i - 1].key) ++key_changes;
  }
  ASSERT_FALSE(lines.empty());
  Tracer traced(true);
  // A 1-byte budget keeps only the entry just used.
  const Pass composed = compose_serve(lines, 1, traced, true);
  const Pass reference = reference_serve(lines, 1);
  EXPECT_EQ(composed.rows, reference.rows);
  EXPECT_EQ(composed.pipeline_mismatches, 0u);
  EXPECT_EQ(composed.counts.cache_misses, key_changes);
  EXPECT_EQ(reference.counts.cache_misses, key_changes);
  EXPECT_EQ(traced.seconds_of("serve.cache_build").size(), key_changes);
}

TEST(Stats, PercentileInterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);        // rank 1.5
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);       // rank 0.75
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(Stats, TailNeedsTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(tail(v).label(), "p99");            // 10 beyond; p99.9 has 1
  EXPECT_DOUBLE_EQ(tail(v).value, percentile(v, 99.0));
  EXPECT_EQ(tail(v, 95.0).label(), "p95");       // capped by the workload
  v.resize(199);
  EXPECT_EQ(tail(v).label(), "p90");            // p95 would have 9.95
  v.resize(100);
  EXPECT_EQ(tail(v).label(), "p90");
  EXPECT_DOUBLE_EQ(tail(v).value, 90.1);        // rank 89.1 of 1..100
  v.resize(10);
  EXPECT_EQ(tail(v).label(), "p50");
  const Tail fine{99.9, 0.0, 0};
  EXPECT_EQ(fine.label(), "p99.9");
}

TEST(Generators, SameSeedSameInputsOtherSeedOtherInputs) {
  const auto lines = [](std::uint64_t seed) {
    std::vector<std::string> out;
    for (const Query& q : serve_zipf(seed).stream(100.0, 2.0, 3))
      out.push_back(std::to_string(q.due_seconds) + q.line);
    return out;
  };
  EXPECT_EQ(lines(11), lines(11));
  EXPECT_NE(lines(11), lines(12));
  const auto specs = [](const SweepWorkload& workload) {
    std::set<std::string> out;
    for (const pals::Scenario& s : workload.scenarios) out.insert(s.workload);
    return out;
  };
  EXPECT_EQ(sweep_static(5).scenarios.size(), sweep_static(6).scenarios.size());
  EXPECT_EQ(specs(sweep_static(5)), specs(sweep_static(5)));
  EXPECT_NE(specs(sweep_static(5)), specs(sweep_static(6)));
  EXPECT_EQ(specs(sweep_dynamic(5)), specs(sweep_dynamic(5)));
  EXPECT_NE(specs(sweep_dynamic(5)), specs(sweep_dynamic(6)));
}

TEST(Generators, ZipfAndPoissonMatchTheirParameters) {
  Rng rng(42);
  const Zipf zipf(4, 1.0);  // 1, 1/2, 1/3, 1/4 over 25/12
  EXPECT_NEAR(zipf.probability(0), 12.0 / 25.0, 1e-12);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 100000; ++i) ++hits[zipf.sample(rng)];
  EXPECT_NEAR(hits[0] / 100000.0, 0.48, 0.01);
  EXPECT_NEAR(hits[3] / 100000.0, 0.12, 0.01);
  const std::vector<Query> stream = serve_zipf(1).stream(500.0, 20.0, 1);
  EXPECT_NEAR(static_cast<double>(stream.size()), 10000.0, 400.0);
  EXPECT_TRUE(std::is_sorted(stream.begin(), stream.end(),
                             [](const Query& a, const Query& b) {
                               return a.due_seconds < b.due_seconds;
                             }));
}

}  // namespace
}  // namespace perfbench
