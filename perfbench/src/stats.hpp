// Order statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile `p` (0..100) of `samples` by linear interpolation between
/// closest ranks (the numpy "linear" method). Throws on an empty sample.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/// The highest percentile a sample supports, and its value.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99 or 95
  double value = 0.0;
  std::size_t samples = 0;

  /// "p95" / "p99.9".
  std::string label() const;
};

/// The highest of p99.9, p99, p95, p90, p75 and p50, at most
/// `max_percentile`, with at least ten samples beyond it
/// (n * (100 - p) / 100 >= 10). Samples too few for even p50 report p50.
/// A workload declares its `max_percentile` so the reported percentile
/// does not change with how many samples one run happened to take.
Tail tail(const std::vector<double>& samples, double max_percentile = 99.9);

}  // namespace perfbench
