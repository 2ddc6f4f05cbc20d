// AMR-drift skeleton: an adaptive-mesh-refinement-style code whose
// refined (hot) region moves through the rank space over the run — e.g. a
// shock front crossing the domain. Every single iteration is imbalanced
// (per-iteration LB equals the configured target), but the hot spot
// visits every rank, so the *total* per-rank computation is nearly
// balanced. Static whole-run algorithms (MAX/AVG) see balanced totals and
// save nothing; a per-iteration controller (core/controllers.hpp) tracks
// the drift.
#include <cmath>
#include <vector>

#include "workloads/apps.hpp"
#include "workloads/imbalance.hpp"

#include "mpisim/vmpi.hpp"
#include "util/rng.hpp"

namespace pals {
namespace {

constexpr double kBaseSeconds = 0.05;  // hot rank per iteration
constexpr double kHaloBytes = 32e3;    // ring halo exchange
constexpr double kBumpWidthRanks = 3.0;

/// Gaussian bump on a ring, centred at `hot`, exponent-calibrated to the
/// target LB.
std::vector<double> bump_weights(Rank n, double hot, double target_lb) {
  std::vector<double> w(static_cast<std::size_t>(n));
  for (Rank k = 0; k < n; ++k) {
    double d = std::abs(static_cast<double>(k) - hot);
    d = std::min(d, static_cast<double>(n) - d);  // ring distance
    w[static_cast<std::size_t>(k)] =
        std::exp(-d * d / (2.0 * kBumpWidthRanks * kBumpWidthRanks));
  }
  // Keep a floor so calibration has room below the target.
  for (double& x : w) x = 0.05 + 0.95 * x;
  return calibrate_to_lb(w, target_lb);
}

}  // namespace

Trace make_amr_drift(const WorkloadConfig& config) {
  config.validate();
  Rng rng(config.seed + 7);
  // The hot spot advances one full revolution over the run.
  std::vector<std::vector<double>> weights;
  weights.reserve(static_cast<std::size_t>(config.iterations));
  for (int it = 0; it < config.iterations; ++it) {
    const double hot = static_cast<double>(it) /
                       static_cast<double>(config.iterations) *
                       static_cast<double>(config.ranks);
    weights.push_back(bump_weights(config.ranks, hot, config.target_lb));
  }
  std::vector<std::vector<double>> jitter(
      static_cast<std::size_t>(config.iterations),
      std::vector<double>(static_cast<std::size_t>(config.ranks), 1.0));
  for (auto& row : jitter)
    for (double& j : row) j = 1.0 + rng.uniform(-config.jitter, config.jitter);

  const Bytes halo = static_cast<Bytes>(kHaloBytes * config.comm_scale);
  const double base = kBaseSeconds * config.compute_scale;
  const Rank n = config.ranks;

  const RankProgram program = [&](VirtualMpi& mpi) {
    const Rank r = mpi.rank();
    const Rank next = (r + 1) % n;
    const Rank prev = (r - 1 + n) % n;
    for (int it = 0; it < config.iterations; ++it) {
      mpi.iteration_begin(it);
      const auto i = static_cast<std::size_t>(it);
      mpi.compute(base * weights[i][static_cast<std::size_t>(r)] *
                  jitter[i][static_cast<std::size_t>(r)]);
      if (n > 1) {
        mpi.irecv(prev, 600, halo);
        if (next != prev) mpi.irecv(next, 601, halo);
        mpi.isend(next, 600, halo);
        if (next != prev) mpi.isend(prev, 601, halo);
        mpi.waitall();
      }
      mpi.allreduce(8);  // regridding decision
      mpi.iteration_end(it);
    }
  };

  return run_spmd(config.ranks, program,
                  SpmdOptions{"AMR-DRIFT-" + std::to_string(config.ranks)});
}

}  // namespace pals
