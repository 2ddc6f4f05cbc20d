#include "analysis/svg_chart.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "scratch_dir.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

std::vector<ChartSeries> sample_series() {
  ChartSeries a;
  a.label = "alpha";
  a.x = {0.0, 1.0, 2.0, 3.0};
  a.y = {1.0, 0.5, 0.8, 0.2};
  ChartSeries b;
  b.label = "beta";
  b.x = {0.0, 1.5, 3.0};
  b.y = {0.3, 0.9, 0.6};
  b.connect = false;
  return {a, b};
}

TEST(SvgChart, WellFormedDocumentWithAllParts) {
  ChartOptions options;
  options.title = "test chart";
  options.x_label = "time";
  options.y_label = "power";
  const std::string svg = render_chart(sample_series(), options);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("test chart"), std::string::npos);
  EXPECT_NE(svg.find("time"), std::string::npos);
  EXPECT_NE(svg.find("power"), std::string::npos);
  EXPECT_NE(svg.find("alpha"), std::string::npos);
  EXPECT_NE(svg.find("beta"), std::string::npos);
  // Connected series draws a polyline; marker-only series does not add a
  // second one.
  std::size_t polylines = 0;
  for (std::size_t pos = svg.find("<polyline"); pos != std::string::npos;
       pos = svg.find("<polyline", pos + 1))
    ++polylines;
  EXPECT_EQ(polylines, 1u);
  // 7 points total -> 7 circles with tooltips.
  std::size_t circles = 0;
  for (std::size_t pos = svg.find("<circle"); pos != std::string::npos;
       pos = svg.find("<circle", pos + 1))
    ++circles;
  EXPECT_EQ(circles, 7u);
}

TEST(SvgChart, AxisTicksCoverTheRange) {
  const std::string svg = render_chart(sample_series(), {});
  // x ticks at integers 0..3 (nice step over span 3 is 1).
  EXPECT_NE(svg.find(">0</text>"), std::string::npos);
  EXPECT_NE(svg.find(">3</text>"), std::string::npos);
}

TEST(SvgChart, ConstantSeriesDoesNotDivideByZero) {
  ChartSeries flat;
  flat.label = "flat";
  flat.x = {1.0, 2.0};
  flat.y = {5.0, 5.0};
  ChartOptions options;
  options.y_from_zero = false;
  EXPECT_NO_THROW(render_chart({flat}, options));
}

TEST(SvgChart, SinglePointSeries) {
  ChartSeries point;
  point.label = "p";
  point.x = {1.0};
  point.y = {2.0};
  const std::string svg = render_chart({point}, {});
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_EQ(svg.find("<polyline"), std::string::npos);
}

TEST(SvgChart, RejectsDegenerateInput) {
  EXPECT_THROW(render_chart({}, {}), Error);
  ChartSeries bad;
  bad.label = "bad";
  bad.x = {1.0, 2.0};
  bad.y = {1.0};
  EXPECT_THROW(render_chart({bad}, {}), Error);
  ChartSeries empty;
  empty.label = "empty";
  EXPECT_THROW(render_chart({empty}, {}), Error);
  ChartOptions tiny;
  tiny.width_px = 10;
  EXPECT_THROW(render_chart(sample_series(), tiny), Error);
}

TEST(SvgChart, FileWriting) {
  const std::string path = (scratch_dir() / "pals_chart.svg").string();
  write_chart_file(sample_series(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("<svg", 0), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pals
