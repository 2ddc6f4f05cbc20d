// FaultPlan grammar + Injector oracle tests: parsing (unit suffixes,
// comments, rank=all), describe() round-trips, validation, and the pure
// (seed, rank, index) perturbation functions the replay engine queries.
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "fault/campaign.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "scratch_dir.hpp"
#include "util/error.hpp"

namespace pals {
namespace fault {
namespace {

TEST(FaultPlanParse, FullGrammarWithUnitSuffixes) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=42; link_degrade:rank=3,t=0.5s,factor=4x; "
      "node_slowdown:rank=1,t=250ms,factor=2; "
      "gear_stuck:rank=7,gear=min; msg_delay_jitter:rank=all,max=1e-4");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.specs.size(), 4u);
  EXPECT_EQ(plan.specs[0].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(plan.specs[0].rank, 3);
  EXPECT_DOUBLE_EQ(plan.specs[0].start, 0.5);
  EXPECT_DOUBLE_EQ(plan.specs[0].factor, 4.0);
  EXPECT_DOUBLE_EQ(plan.specs[1].start, 0.25);
  EXPECT_EQ(plan.specs[2].gear, StuckGear::kMin);
  EXPECT_EQ(plan.specs[3].rank, -1);  // rank=all
  EXPECT_DOUBLE_EQ(plan.specs[3].max_jitter, 1e-4);
  EXPECT_FALSE(plan.perturbs_scenarios());
}

TEST(FaultPlanParse, NewlinesAndCommentsAreEntrySeparators) {
  const FaultPlan plan = FaultPlan::parse(
      "# campaign header comment\n"
      "seed=7\n"
      "scenario_flaky:index=2,failures=3   # one flaky cell\n"
      "scenario_crash:index=5\n");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.specs.size(), 2u);
  EXPECT_EQ(plan.specs[0].kind, FaultKind::kScenarioFlaky);
  EXPECT_EQ(plan.specs[0].index, 2);
  EXPECT_EQ(plan.specs[0].failures, 3);
  EXPECT_EQ(plan.specs[1].kind, FaultKind::kScenarioCrash);
  EXPECT_TRUE(plan.perturbs_scenarios());
}

TEST(FaultPlanParse, DescribeRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=99; link_degrade:rank=3,t=0.5s,factor=4x; "
      "gear_stuck:rank=2,gear=max; msg_delay_jitter:rank=all,max=2e-5; "
      "scenario_flaky:rate=0.25,failures=2");
  EXPECT_EQ(FaultPlan::parse(plan.describe()), plan);
}

TEST(FaultPlanParse, RejectsGrammarViolations) {
  EXPECT_THROW(FaultPlan::parse("warp_core:rank=1"), Error);
  EXPECT_THROW(FaultPlan::parse("link_degrade:rank=1,bogus=3"), Error);
  EXPECT_THROW(FaultPlan::parse("link_degrade:rank=not_a_rank"), Error);
  EXPECT_THROW(FaultPlan::parse("gear_stuck:rank=1,gear=warp"), Error);
  EXPECT_THROW(FaultPlan::parse("seed=always"), Error);
}

TEST(FaultPlanParse, ValidateRejectsOutOfRangeFields) {
  EXPECT_THROW(FaultPlan::parse("link_degrade:rank=1,factor=0.5"), Error);
  EXPECT_THROW(FaultPlan::parse("link_degrade:rank=1,t=-1"), Error);
  EXPECT_THROW(FaultPlan::parse("scenario_flaky:rate=1.5"), Error);
  EXPECT_THROW(FaultPlan::parse("msg_delay_jitter:rank=all,max=-1e-4"),
               Error);
}

TEST(FaultPlanParse, FromFileOrInlineReadsBothSources) {
  const std::string inline_text = "seed=3; scenario_crash:index=1";
  const FaultPlan from_inline = FaultPlan::from_file_or_inline(inline_text);
  EXPECT_EQ(from_inline.seed, 3u);

  const std::string path = (scratch_dir() / "plan_test.faults").string();
  {
    std::ofstream out(path);
    out << inline_text << "\n";
  }
  EXPECT_EQ(FaultPlan::from_file_or_inline(path), from_inline);
  std::remove(path.c_str());
}

TEST(Injector, ComputeFactorRespectsRankAndStartTime) {
  const Injector inject(
      FaultPlan::parse("node_slowdown:rank=1,t=1.0,factor=2"));
  EXPECT_DOUBLE_EQ(inject.compute_factor(1, 0.5), 1.0);  // before onset
  EXPECT_DOUBLE_EQ(inject.compute_factor(1, 1.0), 2.0);  // at onset
  EXPECT_DOUBLE_EQ(inject.compute_factor(1, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(inject.compute_factor(0, 3.0), 1.0);  // other rank
}

TEST(Injector, LinkDegradeMatchesEitherEndpoint) {
  const Injector inject(
      Injector(FaultPlan::parse("link_degrade:rank=3,t=0.5,factor=4")));
  EXPECT_DOUBLE_EQ(inject.transfer_factor(3, 0, 1.0), 4.0);  // src degraded
  EXPECT_DOUBLE_EQ(inject.transfer_factor(0, 3, 1.0), 4.0);  // dst degraded
  EXPECT_DOUBLE_EQ(inject.transfer_factor(0, 1, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(inject.transfer_factor(3, 0, 0.25), 1.0);  // before onset
}

TEST(Injector, LatencyJitterIsPureBoundedAndSeeded) {
  const FaultPlan plan =
      FaultPlan::parse("seed=11; msg_delay_jitter:rank=all,max=1e-4");
  const Injector a(plan), b(plan);
  bool any_positive = false;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const Seconds jitter = a.latency_jitter(2, i);
    EXPECT_GE(jitter, 0.0);
    EXPECT_LE(jitter, 1e-4);
    EXPECT_DOUBLE_EQ(jitter, b.latency_jitter(2, i));  // pure function
    any_positive = any_positive || jitter > 0.0;
  }
  EXPECT_TRUE(any_positive);

  FaultPlan reseeded = plan;
  reseeded.seed = 12;
  const Injector c(reseeded);
  bool any_difference = false;
  for (std::uint64_t i = 0; i < 256 && !any_difference; ++i)
    any_difference = a.latency_jitter(2, i) != c.latency_jitter(2, i);
  EXPECT_TRUE(any_difference) << "jitter ignores the plan seed";
}

TEST(Injector, StuckGearLastSpecWins) {
  const Injector inject(FaultPlan::parse(
      "gear_stuck:rank=2,gear=min; gear_stuck:rank=2,gear=max"));
  EXPECT_TRUE(inject.has_stuck_gears());
  ASSERT_TRUE(inject.stuck_gear(2).has_value());
  EXPECT_EQ(*inject.stuck_gear(2), StuckGear::kMax);
  EXPECT_FALSE(inject.stuck_gear(0).has_value());
}

TEST(Injector, ScenarioFaultsByIndex) {
  const Injector inject(FaultPlan::parse(
      "scenario_flaky:index=2,failures=2; scenario_crash:index=5"));
  EXPECT_EQ(inject.scenario_transient_failures(2), 2);
  EXPECT_EQ(inject.scenario_transient_failures(3), 0);
  EXPECT_TRUE(inject.scenario_crashed(5));
  EXPECT_FALSE(inject.scenario_crashed(2));
}

TEST(Injector, RateBasedSelectionIsSeededAndDeterministic) {
  const FaultPlan plan =
      FaultPlan::parse("seed=5; scenario_flaky:rate=0.5,failures=1");
  const Injector a(plan), b(plan);
  int selected = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(a.scenario_transient_failures(i),
              b.scenario_transient_failures(i));
    if (a.scenario_transient_failures(i) > 0) ++selected;
  }
  // A 50 % rate over 200 cells lands well inside [60, 140] unless the
  // membership hash is broken.
  EXPECT_GT(selected, 60);
  EXPECT_LT(selected, 140);

  FaultPlan reseeded = plan;
  reseeded.seed = 6;
  const Injector c(reseeded);
  bool any_difference = false;
  for (std::size_t i = 0; i < 200 && !any_difference; ++i)
    any_difference = a.scenario_transient_failures(i) !=
                     c.scenario_transient_failures(i);
  EXPECT_TRUE(any_difference) << "rate selection ignores the plan seed";
}

TEST(Campaign, DeterministicSeedSensitiveAndValid) {
  CampaignOptions options;
  options.seed = 21;
  options.ranks = 16;
  options.count = 12;
  options.scenarios = 10;
  options.kinds.push_back(FaultKind::kScenarioFlaky);
  options.kinds.push_back(FaultKind::kScenarioCrash);

  const FaultPlan plan = generate_campaign(options);
  EXPECT_EQ(plan.specs.size(), 12u);
  plan.validate();  // generated plans must pass their own validation
  EXPECT_EQ(generate_campaign(options), plan);

  CampaignOptions other = options;
  other.seed = 22;
  EXPECT_NE(generate_campaign(other), plan);
}

}  // namespace
}  // namespace fault
}  // namespace pals
