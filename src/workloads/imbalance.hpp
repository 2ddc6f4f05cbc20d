// Per-rank load profiles with exact load-balance calibration.
//
// The paper characterizes each application by its load balance
// LB = Σ T_k / (N · max T_k) (Table 3). Our synthetic workloads reproduce
// those values by construction: a shape function produces relative weights
// (max = 1), and calibrate_to_lb() exponent-warps the shape so that
// mean(weights) equals the target LB exactly while preserving max = 1 and
// the shape's rank ordering.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/types.hpp"
#include "util/rng.hpp"

namespace pals {

/// Weight shapes; every function returns `n` weights in (0, 1] with at
/// least one weight equal to 1.

/// Nearly balanced: 1 − U(0, spread) per rank (one rank pinned at 1).
std::vector<double> shape_uniform_noise(Rank n, double spread, Rng& rng);

/// Geometric decay: rank k gets ratio^k, re-sorted so the heavy ranks are
/// interleaved (avoids a pathological all-heavy-first layout).
std::vector<double> shape_geometric(Rank n, double ratio);

/// Two-level zones (BT-MZ style): `heavy_count` ranks at 1, the rest at
/// `light_ratio` (with multiplicative jitter).
std::vector<double> shape_zones(Rank n, Rank heavy_count, double light_ratio,
                                double jitter, Rng& rng);

/// Exponent-warp `weights` (each in (0,1], max = 1) so that
/// mean(w^gamma) == target_lb. Monotone in gamma, solved by bisection.
/// Requires target_lb in (min achievable, 1]; throws otherwise.
std::vector<double> calibrate_to_lb(std::span<const double> weights,
                                    double target_lb);

/// Load balance of a weight/time vector: mean/max.
double weights_load_balance(std::span<const double> weights);

}  // namespace pals
