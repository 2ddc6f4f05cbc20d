// Descriptive statistics over spans of doubles plus a streaming accumulator.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pals {

/// Summary of a sample; all fields are 0 for an empty sample except
/// count.
struct StatsSummary {
  std::size_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double stddev = 0.0;  ///< population standard deviation
};

StatsSummary summarize(std::span<const double> values);

double mean(std::span<const double> values);
double min_value(std::span<const double> values);

/// Coefficient of variation: stddev/mean; 0 if mean is 0.
double coefficient_of_variation(std::span<const double> values);

/// Linear-interpolated percentile, p in [0, 100]. Throws on empty input.
double percentile(std::span<const double> values, double p);

/// Welford streaming mean/variance accumulator.
class OnlineStats {
public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace pals
