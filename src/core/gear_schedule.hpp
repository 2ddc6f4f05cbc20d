// One DVFS schedule for every shape the pipeline runs (paper §4, steps
// 2–5).
//
// Static, per-phase and per-iteration DVFS are the same object: a gear per
// (rank, segment), where the segment is the whole run, a compute burst's
// phase label or the iteration it runs in. A GearSchedule holds those gear
// rows, a fallback gear per rank for everything no row covers, and the
// transition stalls and regulator energy an online controller's switches
// cost. plan_schedule() is the only place gears are chosen; the schedule
// then stretches and prices the scaled replay (replay_scale: time-scale
// factors and power rates) and prices a replayed timeline
// (power_series). The pipeline and the bounds analyzer both go through
// it, so they describe the same run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/algorithms.hpp"
#include "power/power_model.hpp"
#include "replay/replay.hpp"
#include "trace/timeline.hpp"
#include "trace/trace.hpp"

namespace pals {

struct PipelineConfig;  // core/pipeline.hpp

/// What selects the schedule row of a compute burst or timeline interval.
enum class SegmentKey {
  kRun,        ///< nothing: the fallback gears hold for the whole run
  kPhase,      ///< the burst's phase label; rows[s] is label phases[s]
  kIteration,  ///< the iteration the burst runs in; rows[i] is iteration i
};

struct GearSchedule {
  SegmentKey key = SegmentKey::kRun;
  /// rows[s][rank]: the gear of segment s. Empty for kRun.
  std::vector<std::vector<Gear>> rows;
  /// kPhase only: the phase label of each row, ascending.
  std::vector<std::int32_t> phases;
  /// The whole-run assignment. Its gears run wherever no row applies: the
  /// whole run (kRun); unphased bursts, waits and idle tails (kPhase);
  /// code outside every iteration (kIteration, where they are row 0).
  FrequencyAssignment fallback;
  /// stalls[i][rank]: wall-clock stall at the start of iteration i
  /// (kIteration only; empty when nothing stalls).
  std::vector<std::vector<Seconds>> stalls;
  /// Gear changes between consecutive iteration rows, summed over ranks.
  std::size_t switches = 0;
  /// Regulator energy charged for those switches (energy-units).
  double transition_energy = 0.0;
  /// A controller was asked for but the trace has no iteration markers,
  /// so the schedule is the static whole-run one.
  bool fell_back_static = false;

  /// The gear `rank` runs a burst or interval at, given its phase label
  /// and iteration (-1 = none). Throws when the key names a segment that
  /// has no row.
  const Gear& gear(Rank rank, std::int32_t phase,
                   std::int32_t iteration) const;

  /// Fraction of ranks above `nominal_fmax_ghz` in any row (in the
  /// fallback when there are no rows).
  double overclocked_fraction(double nominal_fmax_ghz) const;

  /// The schedule as the scaled replay applies it (replay/replay.hpp):
  /// the β time-model factor of every row's and the fallback's gear per
  /// rank, the stalls, and each of those gears' PowerModel::total_power
  /// while not computing and while computing, flattened into `storage`,
  /// which the returned view points into. The replay stretches every
  /// compute burst by its factor and runs each iteration's stall right
  /// after its begin marker as an unphased burst. Stalls are not
  /// stretched: a regulator stall is wall-clock time. From the power
  /// rates the replay integrates ReplayResult::energy in its pass; the
  /// pipeline adds transition_energy. An iteration schedule needs
  /// iteration markers (the replay checks).
  ReplayScale replay_scale(const PowerModel& power, Rank n_ranks,
                           std::vector<double>& storage) const;

  /// PowerModel::power_series under this schedule. Σ series·dt equals
  /// the scaled replay's ReplayResult::energy; the transition energy has
  /// no time of its own.
  std::vector<double> power_series(const PowerModel& power,
                                   const Timeline& timeline,
                                   Seconds dt) const;

 private:
  /// Row of a burst with this phase label and iteration; -1 = fallback.
  std::ptrdiff_t row_of(std::int32_t phase, std::int32_t iteration) const;
  /// Throws unless every row and the fallback cover `n_ranks` ranks and
  /// the stalls match the iteration rows and are non-negative.
  void check(Rank n_ranks) const;
};

/// Choose the gears of one run. `seed_compute` is the whole-run per-rank
/// compute profile the assigners and controllers start from (the baseline
/// replay's compute times in the pipeline).
///
///  * per_phase: one assignment per phase label, the whole-run assignment
///    as fallback (kPhase).
///  * an online controller on an iteration-marked trace: the controller's
///    start/observe loop, observing each iteration's trace compute under
///    the gears it ran (the β time model), with switches charged
///    config.controller's transition latency and energy (kIteration).
///  * otherwise the one-shot MAX / AVG / energy-optimal assignment (kRun),
///    with fell_back_static set when a controller was asked for but the
///    trace has no iteration markers.
///
/// gear_stuck faults pin every decision, so later observations and the
/// energy books see the stuck gear. `force_controller` sends kStatic
/// through the loop as well (its adapter reproduces the one-shot gears in
/// every iteration): controller_schedules_csv pins those rows, and a
/// CellPlan carries them into run_pipeline. Pure: no counters.
GearSchedule plan_schedule(const Trace& trace, const PipelineConfig& config,
                           std::span<const Seconds> seed_compute,
                           bool force_controller = false);

}  // namespace pals
