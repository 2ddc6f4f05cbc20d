// Static bounds analyzer (pals::bounds).
//
// Abstract-interprets a Trace + platform + gear assignment (or online
// controller) *without running a replay* and emits guaranteed intervals on
// the scaled run's makespan and CPU energy:
//
//  * The DVFS schedule is exact: the analyzer calls plan_schedule
//    (core/gear_schedule.hpp), the same call the pipeline makes. The
//    one-shot assigners and every online controller are pure functions of
//    the seed profile and the observation sequence, and that sequence
//    (per-iteration trace compute × the β time model) is itself static, so
//    gear switches, transition stalls and transition energy come out
//    without touching the DES.
//  * Makespan lower bound: a collective-segment critical path. Replay
//    resumes every rank at a collective's completion time, so slot k can
//    not complete before slot k-1's completion plus the slowest rank's
//    compute between the two plus the slot's cost; summing slots (plus the
//    tail segment) bounds the makespan from below. When the platform is
//    contention-free, the run is fault-free and no gear runs above the
//    reference frequency, the baseline makespan is an additional exact
//    floor (scaling compute up can only delay a max-plus DES).
//  * Makespan upper bound: full serialization. Total scaled compute of all
//    ranks + every p2p message fully serialized (2·latency + transfer) +
//    every collective slot's cost. Sound because a deadlock-free replay
//    always has at least one rank computing or one message/collective in
//    flight, and each such activity consumes its own budget exactly once.
//  * Energy: compute intervals are charged exactly (the schedule fixes
//    their gear and duration); non-compute time per rank is the makespan
//    minus its compute, charged at the sharpest idle-power range the
//    rank's scheduled gears admit. Transition energy is exact.
//
// Final intervals are widened by a tiny relative epsilon to absorb
// floating-point accumulation-order differences against the replay; the
// baseline-makespan floor is exact (FP max/+/x are monotone) and is NOT
// widened, which is what lets the sweep pruner dominate cells whose time
// lower bound ties the baseline exactly.
//
// Consumers: pals_sweep --prune-bounds (branch-and-bound cell pruning),
// the post-replay soundness oracle (check_soundness → lint diagnostics),
// and the pals_lint --bounds / pals_check reporting surface. docs/bounds.md
// has the full contract.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "lint/diagnostic.hpp"
#include "replay/replay.hpp"
#include "trace/trace.hpp"

namespace pals {
namespace bounds {

/// Closed interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool contains(double value) const { return value >= lo && value <= hi; }
  double width() const { return hi - lo; }
};

struct ScenarioBounds {
  /// Guaranteed interval on the scaled replay's makespan (seconds).
  Interval makespan;
  /// Guaranteed interval on scaled CPU energy incl. transition energy.
  Interval energy;

  /// makespan / baseline makespan and energy / baseline energy — only
  /// meaningful when analyze() was given the baseline replay.
  Interval normalized_time;
  Interval normalized_energy;
  bool normalized = false;

  /// Rountree-style continuous relaxation (core/bound.hpp) at the slowdown
  /// this scenario's upper time bound admits, over the gear set's
  /// frequency range. A reference floor for gap reporting, not part of the
  /// soundness contract (it assumes per-rank constant frequencies).
  double continuous_energy_floor = 0.0;

  /// Provable floor on the run's time-average total CPU power
  /// (energy-units/s) over every execution consistent with the intervals.
  /// A power cap below this value is statically infeasible.
  double min_average_power = 0.0;

  /// True when the lower time bound includes the exact baseline-makespan
  /// floor (contention-free platform, no faults, no over-clocked gear).
  bool monotonicity_floor = false;

  /// Reconstructed schedule facts (0 iterations = static one-shot path).
  std::size_t iterations = 0;
  std::size_t switches = 0;
};

/// Analyze one scenario statically. `baseline` (the reference-frequency
/// replay of `trace` under config.replay) is optional: with it the
/// analyzer seeds assigners from the exact replay compute profile, arms
/// the baseline-makespan floor and fills the normalized intervals; without
/// it the seed comes from the trace's compute sums (the pure
/// pre-replay surface used by pals_lint --bounds / pals_check).
///
/// The intervals describe the *fault-free* scaled replay; with a fault
/// plan injected only gear_stuck pinning is modeled (callers disarm the
/// oracle and the pruner whenever any fault plan is attached). Throws on
/// per-phase configs (no single schedule to bound).
ScenarioBounds analyze(const Trace& trace, const PipelineConfig& config,
                       const ReplayResult* baseline = nullptr);

/// Indented multi-line rendering of the intervals for the pals_lint
/// --bounds / pals_check text surface (every line starts with two spaces
/// and ends with '\n').
std::string to_text(const ScenarioBounds& bounds);

/// Deterministic single-line JSON object with round-trip number
/// formatting; the normalized interval members appear only when
/// `normalized` is true.
std::string to_json(const ScenarioBounds& bounds);

/// The soundness-oracle contract: every replayed scenario must land inside
/// its static intervals. Returns one kBoundViolationTime /
/// kBoundViolationEnergy diagnostic per escaped metric (empty = sound)
/// and bumps the lint.diag.* counters like lint_trace does — an escape is
/// a bug in the simulator, the power model or the analyzer itself.
std::vector<lint::Diagnostic> check_soundness(const ScenarioBounds& bounds,
                                              Seconds actual_makespan,
                                              double actual_energy);

}  // namespace bounds
}  // namespace pals
