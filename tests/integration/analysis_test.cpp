#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "analysis/experiments.hpp"
#include "analysis/gantt.hpp"
#include "analysis/svg.hpp"
#include "replay/replay.hpp"
#include "scratch_dir.hpp"
#include "util/error.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

Timeline small_timeline() {
  Timeline tl(2);
  tl.append(0, {0.0, 1.0, RankState::kCompute, -1});
  tl.append(0, {1.0, 2.0, RankState::kRecv, -1});
  tl.append(1, {0.0, 2.0, RankState::kCompute, -1});
  return tl;
}

TEST(Gantt, RendersOneRowPerRank) {
  const std::string out = render_gantt(small_timeline(), {40, true, 0});
  EXPECT_NE(out.find("r0"), std::string::npos);
  EXPECT_NE(out.find("r1"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('>'), std::string::npos);
  EXPECT_NE(out.find("compute"), std::string::npos);  // legend line
}

TEST(Gantt, ComputeDominatedRowIsMostlyHashes) {
  Timeline tl(1);
  tl.append(0, {0.0, 10.0, RankState::kCompute, -1});
  const std::string out = render_gantt(tl, {50, false, 0});
  std::size_t hashes = 0;
  for (char c : out)
    if (c == '#') ++hashes;
  EXPECT_GE(hashes, 48u);
}

TEST(Gantt, MaxRanksSamplesLanes) {
  Timeline tl(16);
  for (Rank r = 0; r < 16; ++r)
    tl.append(r, {0.0, 1.0, RankState::kCompute, -1});
  const std::string out = render_gantt(tl, {20, false, 4});
  std::size_t rows = 0;
  for (char c : out)
    if (c == '\n') ++rows;
  EXPECT_EQ(rows, 4u);
}

TEST(Gantt, RejectsDegenerateInput) {
  EXPECT_THROW(render_gantt(Timeline(1), {}), Error);
  GanttOptions bad;
  bad.width = 0;
  EXPECT_THROW(render_gantt(small_timeline(), bad), Error);
}

TEST(Svg, ProducesWellFormedDocument) {
  const std::string svg = render_svg(small_timeline(), {});
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per interval (3) plus 6 legend swatches.
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1))
    ++rects;
  EXPECT_EQ(rects, 9u);
}

TEST(Svg, TitleAndTooltipsPresent) {
  SvgOptions options;
  options.title = "my run";
  const std::string svg = render_svg(small_timeline(), options);
  EXPECT_NE(svg.find("my run"), std::string::npos);
  EXPECT_NE(svg.find("<title>rank 0 compute"), std::string::npos);
}

TEST(Svg, LegendCanBeDisabled) {
  SvgOptions options;
  options.show_legend = false;
  const std::string svg = render_svg(small_timeline(), options);
  EXPECT_EQ(svg.find("collective</text>"), std::string::npos);
}

TEST(Svg, RejectsDegenerateInput) {
  EXPECT_THROW(render_svg(Timeline(1), {}), Error);
  SvgOptions bad;
  bad.width_px = 0;
  EXPECT_THROW(render_svg(small_timeline(), bad), Error);
}

TEST(Svg, FileWriting) {
  const std::string path = (scratch_dir() / "pals_test.svg").string();
  write_svg_file(small_timeline(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("<svg", 0), 0u);
  std::remove(path.c_str());
}

TEST(Experiments, DefaultConfigMatchesPaperParameters) {
  const PipelineConfig c = default_pipeline_config(paper_uniform(6));
  EXPECT_EQ(c.algorithm.algorithm, Algorithm::kMax);
  EXPECT_DOUBLE_EQ(c.algorithm.beta, 0.5);
  EXPECT_DOUBLE_EQ(c.power.static_fraction, 0.2);
  EXPECT_DOUBLE_EQ(c.power.activity_ratio, 1.5);
  EXPECT_NEAR(c.power.reference.frequency_ghz, 2.3, 1e-12);
  EXPECT_NEAR(c.power.reference.voltage_v, 1.5, 1e-9);
  EXPECT_NO_THROW(c.validate());
}

TEST(Experiments, SetBetaKeepsConfigConsistent) {
  PipelineConfig c = default_pipeline_config(paper_uniform(6));
  set_beta(c, 0.8);
  EXPECT_DOUBLE_EQ(c.algorithm.beta, 0.8);
  EXPECT_DOUBLE_EQ(c.power.beta, 0.8);
  EXPECT_NO_THROW(c.validate());
}

TEST(Experiments, RunExperimentFlattensPipeline) {
  const auto inst = benchmark_by_name("BT-MZ-32", 2);
  ASSERT_TRUE(inst.has_value());
  const Trace t = inst->make();
  const ExperimentRow row = run_experiment(
      t, inst->name, "uniform-6",
      default_pipeline_config(paper_uniform(6)));
  EXPECT_EQ(row.instance, "BT-MZ-32");
  EXPECT_EQ(row.variant, "uniform-6");
  EXPECT_GT(row.load_balance, 0.0);
  EXPECT_LT(row.normalized_energy, 1.0);
  EXPECT_NEAR(row.normalized_edp,
              row.normalized_energy * row.normalized_time, 1e-12);
}

TEST(Experiments, TraceCacheBuildsOnce) {
  TraceCache cache;
  const auto inst = benchmark_by_name("CG-32", 2);
  ASSERT_TRUE(inst.has_value());
  const Trace& a = cache.get(*inst);
  const Trace& b = cache.get(*inst);
  EXPECT_EQ(&a, &b);
}

TEST(Experiments, PrintRowsWritesCsv) {
  const std::string path = (scratch_dir() / "pals_rows.csv").string();
  std::vector<ExperimentRow> rows(1);
  rows[0].instance = "X";
  rows[0].variant = "v";
  rows[0].normalized_energy = 0.5;
  print_rows(rows, "test", path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("normalized_energy"), std::string::npos);
  std::string line;
  std::getline(in, line);
  EXPECT_NE(line.find("X"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Experiments, GanttOnRealReplay) {
  const auto inst = benchmark_by_name("BT-MZ-32", 2);
  ASSERT_TRUE(inst.has_value());
  const ReplayResult r = replay(inst->make(), ReplayConfig{});
  const std::string out = render_gantt(r.timeline, {80, true, 8});
  EXPECT_GT(out.size(), 8u * 80u);
}

}  // namespace
}  // namespace pals
