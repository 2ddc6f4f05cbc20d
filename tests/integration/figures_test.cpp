// The figures API: row counts, variant labels and markdown rendering.
// (Result *values* are covered by integration/paper_test.cpp; these tests
// pin the sweep structure each figure function produces.)
#include "analysis/figures.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.hpp"

namespace pals {
namespace {

TraceCache& cache() {
  static TraceCache instance;
  return instance;
}

TEST(Figures, Table3CoversAllInstances) {
  const auto rows = table3_rows(cache(), 3);
  ASSERT_EQ(rows.size(), 12u);
  EXPECT_EQ(rows.front().instance, "BT-MZ-32");
  EXPECT_NE(rows.front().variant.find("paper LB"), std::string::npos);
}

TEST(Figures, Figure2HasSixteenVariantsPerInstance) {
  const auto rows = figure2_rows(cache());
  EXPECT_EQ(rows.size(), 5u * 16u);
  EXPECT_EQ(rows[0].variant, "continuous-unlimited");
  EXPECT_EQ(rows[15].variant, "uniform-15");
}

TEST(Figures, Figure3SortedByLoadBalance) {
  const auto rows = figure3_rows(cache());
  EXPECT_EQ(rows.size(), 12u * 3u);
  for (std::size_t i = 1; i < rows.size(); ++i)
    EXPECT_LE(rows[i - 1].load_balance, rows[i].load_balance + 1e-12);
}

TEST(Figures, SweepRowCounts) {
  EXPECT_EQ(figure4_rows(cache()).size(), 12u * 5u);
  EXPECT_EQ(figure5_rows(cache()).size(), 12u * 8u);
  EXPECT_EQ(figure6_rows(cache()).size(), 12u * 10u);
  EXPECT_EQ(figure7_rows(cache()).size(), 12u * 7u);
  EXPECT_EQ(figure8_rows(cache()).size(), 12u * 2u);
  EXPECT_EQ(figure9_rows(cache()).size(), 12u);
  EXPECT_EQ(figure10_rows(cache()).size(), 12u * 2u);
}

TEST(Figures, Figure6ReplaysEachBaselineOnce) {
  // The static-power fraction changes only the energy, so the 120 cells
  // share their instance's baseline: 12 baselines + 120 scaled replays.
  const obs::Counter& runs = obs::default_registry().counter("replay.runs");
  const std::uint64_t before = runs.value();
  EXPECT_EQ(figure6_rows(cache(), 2).size(), 12u * 10u);
  EXPECT_EQ(runs.value() - before, 12u + 120u);
}

TEST(Figures, MarkdownRendering) {
  std::vector<ExperimentRow> rows(1);
  rows[0].instance = "X-8";
  rows[0].variant = "v";
  rows[0].load_balance = 0.5;
  rows[0].normalized_energy = 0.25;
  const std::string md = rows_to_markdown(rows);
  EXPECT_NE(md.find("| instance |"), std::string::npos);
  EXPECT_NE(md.find("| X-8 | v | 50.00% |"), std::string::npos);
  EXPECT_NE(md.find("| 25.00% |"), std::string::npos);
}

}  // namespace
}  // namespace pals
