// Per-iteration imbalance statistics.
//
// The paper's static assignment assumes "regular, iterative behavior with
// fixed computation time ratio among processes". This module quantifies
// how well a trace satisfies that assumption:
//  * per-iteration load balance and its spread,
//  * the drift index: 1 − min over iterations of the correlation between
//    an iteration's per-rank load vector and the whole-run totals.
//    ~0 = every iteration mirrors the aggregate (static DVFS is optimal);
//    ~1 = the pattern moves (use a dynamic controller,
//    core/controllers.hpp).
#pragma once

#include <vector>

#include "trace/trace.hpp"

namespace pals {

struct IterationStats {
  std::size_t iterations = 0;
  /// Load balance of the whole-run per-rank totals (what MAX/AVG see).
  double total_load_balance = 0.0;
  /// Load balance of each iteration.
  std::vector<double> per_iteration_load_balance;
  double mean_iteration_load_balance = 0.0;
  double min_iteration_load_balance = 0.0;
  /// Pearson correlation of each iteration's load vector with the totals.
  std::vector<double> iteration_correlation;
  /// 1 − min correlation, clamped to [0, 2] (negative correlation means
  /// the pattern inverts).
  double drift_index = 0.0;

  /// True when a whole-run static assignment captures most of the
  /// per-iteration slack (low drift, iteration LB close to total LB).
  bool static_assignment_sufficient(double tolerance = 0.1) const;
};

/// Compute statistics from an iteration-marked trace. Throws if the trace
/// carries no iteration markers.
IterationStats analyze_iterations(const Trace& trace);

/// Pearson correlation coefficient of two equal-length samples; 0 when
/// either sample has zero variance.
double pearson_correlation(std::span<const double> a,
                           std::span<const double> b);

}  // namespace pals
