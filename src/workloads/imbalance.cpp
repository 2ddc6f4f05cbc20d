#include "workloads/imbalance.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace pals {
namespace {

void check_n(Rank n) { PALS_CHECK_MSG(n > 0, "need at least one rank"); }

void normalize_max_to_one(std::vector<double>& w) {
  const double mx = *std::max_element(w.begin(), w.end());
  PALS_CHECK_MSG(mx > 0.0, "weights must contain a positive value");
  for (double& x : w) x /= mx;
}

}  // namespace

std::vector<double> shape_uniform_noise(Rank n, double spread, Rng& rng) {
  check_n(n);
  PALS_CHECK_MSG(spread >= 0.0 && spread < 1.0, "spread must lie in [0, 1)");
  std::vector<double> w(static_cast<std::size_t>(n));
  for (double& x : w) x = 1.0 - rng.uniform(0.0, spread);
  // Pin the heaviest rank to exactly 1 so LB == mean(w).
  const auto heaviest = std::max_element(w.begin(), w.end());
  *heaviest = 1.0;
  return w;
}

std::vector<double> shape_geometric(Rank n, double ratio) {
  check_n(n);
  PALS_CHECK_MSG(ratio > 0.0 && ratio < 1.0, "ratio must lie in (0, 1)");
  std::vector<double> w(static_cast<std::size_t>(n));
  for (Rank k = 0; k < n; ++k)
    w[static_cast<std::size_t>(k)] = std::pow(ratio, static_cast<double>(k));
  // Interleave heavy and light ranks: even ranks take the heavy half in
  // order, odd ranks the light half, so neighbours differ in load.
  std::vector<double> interleaved(w.size());
  std::size_t lo = 0;
  std::size_t hi = w.size() - 1;
  for (std::size_t k = 0; k < w.size(); ++k)
    interleaved[k] = (k % 2 == 0) ? w[lo++] : w[hi--];
  return interleaved;
}

std::vector<double> shape_zones(Rank n, Rank heavy_count, double light_ratio,
                                double jitter, Rng& rng) {
  check_n(n);
  PALS_CHECK_MSG(heavy_count > 0 && heavy_count <= n,
                 "heavy_count must lie in [1, n]");
  PALS_CHECK_MSG(light_ratio > 0.0 && light_ratio < 1.0,
                 "light_ratio must lie in (0, 1)");
  PALS_CHECK_MSG(jitter >= 0.0 && jitter < 1.0, "jitter must lie in [0, 1)");
  std::vector<double> w(static_cast<std::size_t>(n));
  // Spread the heavy ranks evenly through the rank space.
  const double stride = static_cast<double>(n) / static_cast<double>(heavy_count);
  std::vector<bool> heavy(static_cast<std::size_t>(n), false);
  for (Rank h = 0; h < heavy_count; ++h) {
    auto idx = static_cast<std::size_t>(std::floor(static_cast<double>(h) *
                                                   stride));
    while (heavy[idx]) idx = (idx + 1) % w.size();
    heavy[idx] = true;
  }
  for (std::size_t k = 0; k < w.size(); ++k) {
    const double base = heavy[k] ? 1.0 : light_ratio;
    w[k] = base * (1.0 - rng.uniform(0.0, jitter));
  }
  normalize_max_to_one(w);
  return w;
}

std::vector<double> calibrate_to_lb(std::span<const double> weights,
                                    double target_lb) {
  PALS_CHECK_MSG(!weights.empty(), "no weights");
  PALS_CHECK_MSG(target_lb > 0.0 && target_lb <= 1.0,
                 "target LB must lie in (0, 1]");
  for (double x : weights)
    PALS_CHECK_MSG(x > 0.0 && x <= 1.0 + 1e-12,
                   "weights must lie in (0, 1]; got " << x);

  const auto lb_at = [&](double gamma) {
    double total = 0.0;
    for (double x : weights) total += std::pow(x, gamma);
    return total / static_cast<double>(weights.size());
  };

  // mean(w^gamma) is continuous and decreasing in gamma (w <= 1); gamma=0
  // gives 1, gamma -> inf gives (#weights==1)/N.
  constexpr double kGammaMax = 200.0;
  const double lb_min = lb_at(kGammaMax);
  PALS_CHECK_MSG(target_lb >= lb_min,
                 "target LB " << target_lb
                              << " below the shape's achievable minimum "
                              << lb_min);
  double lo = 0.0;
  double hi = kGammaMax;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (lb_at(mid) > target_lb)
      lo = mid;
    else
      hi = mid;
  }
  const double gamma = 0.5 * (lo + hi);
  std::vector<double> out(weights.size());
  for (std::size_t k = 0; k < weights.size(); ++k)
    out[k] = std::pow(weights[k], gamma);
  return out;
}

double weights_load_balance(std::span<const double> weights) {
  PALS_CHECK_MSG(!weights.empty(), "no weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  const double mx = *std::max_element(weights.begin(), weights.end());
  PALS_CHECK_MSG(mx > 0.0, "weights must contain a positive value");
  return total / (static_cast<double>(weights.size()) * mx);
}

}  // namespace pals
