#include "analysis/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/experiments.hpp"
#include "obs/metrics.hpp"

namespace pals {
namespace {

TEST(ProfileTest, ReportCountsAndThroughput) {
  obs::default_registry().reset();
  const Trace trace = resolve_workload("cg:8:0.85:3", 3).build();
  ProfileOptions options;
  options.repeat = 3;
  options.jobs = 2;
  const ProfileReport report = profile_pipeline(trace, options);

  EXPECT_EQ(report.pipelines, 3u);
  // Each pipeline runs a baseline and a scaled replay.
  EXPECT_EQ(report.replays, 6u);
  EXPECT_GT(report.simulated_events, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.pipelines_per_second, 0.0);
  EXPECT_GT(report.events_per_second, 0.0);
  EXPECT_GE(report.pool.workers, 2u);
  EXPECT_GE(report.pool.tasks_executed, 3u);

  // Span deltas cover every pipeline phase, sorted by name.
  ASSERT_FALSE(report.phases.empty());
  EXPECT_TRUE(std::is_sorted(
      report.phases.begin(), report.phases.end(),
      [](const PhaseProfile& a, const PhaseProfile& b) {
        return a.name < b.name;
      }));
  const auto has_phase = [&](const std::string& name) {
    return std::any_of(report.phases.begin(), report.phases.end(),
                       [&](const PhaseProfile& p) { return p.name == name; });
  };
  EXPECT_TRUE(has_phase("pipeline.baseline_replay"));
  EXPECT_TRUE(has_phase("pipeline.scaled_replay"));
  EXPECT_TRUE(has_phase("pipeline.assignment"));
  EXPECT_TRUE(has_phase("pipeline.rescale"));
  obs::default_registry().reset();
}

TEST(ProfileTest, RepeatZeroIsRejected) {
  const Trace trace = resolve_workload("cg:8:0.85:2", 2).build();
  ProfileOptions options;
  options.repeat = 0;
  EXPECT_ANY_THROW(profile_pipeline(trace, options));
}

}  // namespace
}  // namespace pals
