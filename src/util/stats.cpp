#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pals {

StatsSummary summarize(std::span<const double> values) {
  StatsSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  OnlineStats acc;
  for (double v : values) acc.add(v);
  s.sum = acc.sum();
  s.mean = acc.mean();
  s.min = acc.min();
  s.max = acc.max();
  s.stddev = acc.stddev();
  return s;
}

double mean(std::span<const double> values) { return summarize(values).mean; }

double min_value(std::span<const double> values) {
  PALS_CHECK_MSG(!values.empty(), "min_value of empty sample");
  return *std::min_element(values.begin(), values.end());
}

double coefficient_of_variation(std::span<const double> values) {
  const StatsSummary s = summarize(values);
  return s.mean == 0.0 ? 0.0 : s.stddev / s.mean;
}

double percentile(std::span<const double> values, double p) {
  PALS_CHECK_MSG(!values.empty(), "percentile of empty sample");
  PALS_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

}  // namespace pals
