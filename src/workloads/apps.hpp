// Synthetic application skeletons (stand-ins for the paper's benchmarks).
//
// Each generator emits, via the virtual MPI runtime, the communication
// structure and per-rank computation profile of one application:
//
//   CG        NAS CG: inner-iteration halo exchanges + dot-product
//             allreduces; nearly balanced.
//   MG        NAS MG: V-cycle over grid levels, 3-D halo exchanges whose
//             message sizes shrink with level; well balanced.
//   IS        NAS IS: bucket-sort alltoall dominated; strongly imbalanced
//             key distribution, very low parallel efficiency.
//   BT-MZ     NAS multi-zone BT: zones of very different sizes pinned to
//             ranks; the most imbalanced code in the paper.
//   SPECFEM3D seismic wave propagation: 2-D partition halo stencil,
//             compute-dominated.
//   WRF       weather prediction: multi-substep 2-D halo stencil.
//   PEPC      plasma tree code: two computation phases per iteration with
//             *different* imbalance patterns (the paper's explanation for
//             PEPC's poor behaviour under a single DVFS setting).
//
// Per-rank load profiles are calibrated (workloads/imbalance.hpp) so each
// instance's load balance matches Table 3 of the paper; message sizes are
// tuned so the replayed parallel efficiency lands near Table 3 as well.
#pragma once

#include <cstdint>

#include "trace/trace.hpp"

namespace pals {

struct WorkloadConfig {
  Rank ranks = 32;
  int iterations = 10;
  std::uint64_t seed = 0x5EED;
  /// Target load balance (mean/max computation time), (0, 1].
  double target_lb = 0.9;
  /// Multiplier on every computation burst.
  double compute_scale = 1.0;
  /// Multiplier on every message size (parallel-efficiency tuning knob).
  double comm_scale = 1.0;
  /// Relative per-iteration noise on burst durations (iterative codes are
  /// regular but not exact).
  double jitter = 0.01;

  void validate() const;
};

Trace make_cg(const WorkloadConfig& config);
Trace make_mg(const WorkloadConfig& config);
Trace make_is(const WorkloadConfig& config);
Trace make_bt_mz(const WorkloadConfig& config);
Trace make_specfem3d(const WorkloadConfig& config);
Trace make_wrf(const WorkloadConfig& config);
Trace make_pepc(const WorkloadConfig& config);
/// AMR-style code whose hot region drifts across ranks over the run;
/// every iteration hits `target_lb`, the totals are nearly balanced.
/// Not part of the paper's Table 3 — used by the dynamic-controller
/// extension studies (core/controllers.hpp).
Trace make_amr_drift(const WorkloadConfig& config);
/// NAS LU: pipelined wavefront sweeps (blocking dependency chains).
/// Suite extension beyond the paper's benchmark subset.
Trace make_lu(const WorkloadConfig& config);
/// NAS FT: transpose-based 3-D FFT (all-to-all dominated, balanced).
/// Suite extension beyond the paper's benchmark subset.
Trace make_ft(const WorkloadConfig& config);

/// Near-cubic 3-D factorization of `n` ranks (px >= py >= pz, px·py·pz == n).
struct Grid3D {
  Rank px = 1, py = 1, pz = 1;
};
Grid3D factor_3d(Rank n);

/// Near-square 2-D factorization (px >= py, px·py == n).
struct Grid2D {
  Rank px = 1, py = 1;
};
Grid2D factor_2d(Rank n);

}  // namespace pals
