// CPU power and execution-time models (paper §3.2).
//
//   P_dynamic = A · C · f · V²     (A differs between compute and comm)
//   P_static  = α · V              (α calibrated from a static fraction)
//   T(f)/T(fmax) = β · (fmax/f − 1) + 1
//
// Units are internal: A_compute·C is normalized to 1 energy-unit/(GHz·V²·s).
// All reported results are normalized ratios (energy, EDP), so the absolute
// unit cancels — exactly as in the paper.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <vector>

#include "power/gearset.hpp"
#include "trace/timeline.hpp"
#include "util/error.hpp"

namespace pals {

struct PowerModelConfig {
  /// Ratio of computation to communication activity factor (paper: 1.5,
  /// swept 1.5–3.0 in Fig. 7).
  double activity_ratio = 1.5;
  /// Fraction of static power in total CPU power when loaded at
  /// (fmax, Vmax) (paper: 0.2, swept 0.0–0.9 in Fig. 6).
  double static_fraction = 0.2;
  /// Memory-boundedness of computation (paper: 0.5, swept 0.3–1.0 Fig. 5).
  double beta = 0.5;
  /// Reference (manufacturer top) operating point; durations in traces are
  /// measured at this frequency.
  Gear reference = Gear{kPaperFmaxGhz, 1.5};
  /// Power multiplier applied while NOT computing (waiting in MPI or
  /// idle). 1.0 reproduces the paper's model (the CPU stays fully powered
  /// at the communication activity factor); < 1 models C-states / clock
  /// gating during waits. With deep idle states, "race-to-idle" becomes
  /// competitive and MAX's lowest-feasible-gear rule stops being
  /// energy-optimal (see assign_frequencies_energy_optimal).
  double idle_scale = 1.0;

  void validate() const;
};

/// Evaluates power at operating points and integrates energy over
/// timelines.
class PowerModel {
public:
  explicit PowerModel(const PowerModelConfig& config);

  const PowerModelConfig& config() const { return config_; }

  /// Dynamic power at `gear` (energy-units/s). `computing` selects the
  /// activity factor.
  double dynamic_power(const Gear& gear, bool computing) const;
  /// Static (leakage) power at `gear`'s voltage.
  double static_power(const Gear& gear) const;
  /// dynamic + static.
  double total_power(const Gear& gear, bool computing) const;

  /// Multiplier for a compute burst executed at `f_ghz` instead of the
  /// reference frequency: β(fref/f − 1) + 1. Over-clocked frequencies give
  /// factors < 1 (speed-up).
  double time_scale(double f_ghz) const;
  /// time_scale with an explicit beta (per-phase sensitivity studies).
  double time_scale(double f_ghz, double beta) const;

  /// Total CPU energy, rank r running each interval `iv` of its lane at
  /// `gear_of(r, iv)`. A lane shorter than the makespan idles its tail at
  /// communication activity; the tail is asked for as an idle interval
  /// with no phase and no iteration. This is the one integration loop:
  /// total_energy, baseline_energy, rank_energy and GearSchedule::energy
  /// (core/gear_schedule.hpp) all sum per rank, then over ranks in rank
  /// order.
  template <class GearOf>
  double energy(const Timeline& timeline, const GearOf& gear_of) const {
    const Seconds makespan = timeline.makespan();
    double energy = 0.0;
    for (Rank r = 0; r < timeline.n_ranks(); ++r)
      energy += lane_energy(timeline, r, makespan, gear_of);
    return energy;
  }

  /// Energy of rank `rank` over its timeline lane, with the rank's CPU
  /// pinned at `gear` for the entire execution (the paper assigns one
  /// frequency per process).
  double rank_energy(const Timeline& timeline, Rank rank,
                     const Gear& gear) const;

  /// Total CPU energy with per-rank gears (`gears.size()` == rank count).
  double total_energy(const Timeline& timeline,
                      std::span<const Gear> gears) const;

  /// Baseline energy: every rank at the reference gear.
  double baseline_energy(const Timeline& timeline) const;

  /// Aggregate power profile: sample k holds the average total power of
  /// all ranks over [k·dt, (k+1)·dt), each interval at
  /// `gear_of(rank, interval)` as in energy(). Interval energy is split
  /// exactly across bins, so sum(series)·dt equals energy(timeline,
  /// gear_of). Lanes shorter than the makespan are charged their idle
  /// tail at communication activity, matching the energy accounting.
  template <class GearOf>
    requires std::invocable<const GearOf&, Rank, const StateInterval&>
  std::vector<double> power_series(const Timeline& timeline,
                                   const GearOf& gear_of, Seconds dt) const {
    PALS_CHECK_MSG(dt > 0.0, "sample interval must be positive");
    const Seconds makespan = timeline.makespan();
    std::vector<double> energy(
        std::max<std::size_t>(
            static_cast<std::size_t>(std::ceil(makespan / dt - 1e-12)), 1),
        0.0);
    const auto deposit = [&](Seconds begin, Seconds end, double power) {
      Seconds t = begin;
      while (t < end - 1e-15) {
        const auto bin = std::min(
            energy.size() - 1, static_cast<std::size_t>(t / dt + 1e-12));
        const Seconds bin_end = static_cast<double>(bin + 1) * dt;
        const Seconds slice_end = std::min(end, bin_end);
        energy[bin] += (slice_end - t) * power;
        t = slice_end;
      }
    };
    for (Rank r = 0; r < timeline.n_ranks(); ++r) {
      StateInterval tail;
      for (const StateInterval& iv : timeline.intervals(r)) {
        deposit(iv.begin, iv.end,
                total_power(gear_of(r, iv), iv.state == RankState::kCompute));
        tail.begin = iv.end;
      }
      tail.end = makespan;
      if (tail.begin < makespan)
        deposit(tail.begin, makespan,
                total_power(gear_of(r, tail), /*computing=*/false));
    }
    for (double& e : energy) e /= dt;
    return energy;
  }

  /// power_series with one gear per rank for the whole run.
  std::vector<double> power_series(const Timeline& timeline,
                                   std::span<const Gear> gears,
                                   Seconds dt) const;

private:
  PowerModelConfig config_;
  double activity_compute_ = 1.0;  ///< A·C lumped, normalized
  double activity_comm_ = 1.0;
  double alpha_ = 0.0;  ///< static-power coefficient

  /// energy() of one lane, its idle tail reaching `makespan`.
  template <class GearOf>
  double lane_energy(const Timeline& timeline, Rank rank, Seconds makespan,
                     const GearOf& gear_of) const {
    double energy = 0.0;
    StateInterval tail;
    for (const StateInterval& iv : timeline.intervals(rank)) {
      energy += iv.duration() *
                total_power(gear_of(rank, iv), iv.state == RankState::kCompute);
      tail.begin = iv.end;
    }
    tail.end = makespan;
    if (tail.duration() > 0.0)
      energy += tail.duration() *
                total_power(gear_of(rank, tail), /*computing=*/false);
    return energy;
  }
};

}  // namespace pals
