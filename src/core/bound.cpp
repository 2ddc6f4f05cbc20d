#include "core/bound.hpp"

#include <algorithm>
#include <cmath>

#include "core/algorithms.hpp"
#include "util/error.hpp"

namespace pals {

void EnergyBoundConfig::validate() const {
  power.validate();
  PALS_CHECK_MSG(fmin_ghz > 0.0 && fmin_ghz <= fmax_ghz,
                 "bound needs 0 < fmin <= fmax");
  PALS_CHECK_MSG(fmax_ghz <= power.reference.frequency_ghz + 1e-12,
                 "the bound does not model over-clocking");
}

namespace {

/// The frequency-only terms of a rank's energy at f: the gear's computing
/// and idle power (linear paper V(f)) and the β stretch factor.
struct FrequencyPoint {
  double f_ghz = 0.0;
  double stretch = 0.0;  ///< compute time multiplier at f
  double compute_power = 0.0;
  double idle_power = 0.0;

  FrequencyPoint(const PowerModel& power, const VoltageModel& vm,
                 double f, double fref, double beta)
      : f_ghz(f), stretch(beta * (fref / f - 1.0) + 1.0) {
    const Gear gear = vm.gear(f);
    compute_power = power.total_power(gear, /*computing=*/true);
    idle_power = power.total_power(gear, /*computing=*/false);
  }

  /// Rank energy over a fixed interval of length `total` when computing
  /// for `compute_time` at this frequency.
  double energy(Seconds compute_time, Seconds total) const {
    return compute_time * compute_power + (total - compute_time) * idle_power;
  }
};

constexpr int kGrid = 512;

/// The search grid over [f_lo, fmax]: kGrid + 1 evenly spaced points.
std::vector<FrequencyPoint> frequency_grid(const PowerModel& power,
                                           const VoltageModel& vm,
                                           double f_lo, double fmax,
                                           double fref, double beta) {
  std::vector<FrequencyPoint> grid;
  grid.reserve(kGrid + 1);
  for (int i = 0; i <= kGrid; ++i)
    grid.emplace_back(power, vm,
                      f_lo + (fmax - f_lo) * static_cast<double>(i) / kGrid,
                      fref, beta);
  return grid;
}

}  // namespace

EnergyBound energy_saving_bound(std::span<const Seconds> computation_time,
                                Seconds total_time, double allowed_slowdown,
                                const EnergyBoundConfig& config) {
  config.validate();
  PALS_CHECK_MSG(!computation_time.empty(), "no ranks");
  PALS_CHECK_MSG(allowed_slowdown >= 0.0, "negative allowed slowdown");
  const Seconds t_max =
      *std::max_element(computation_time.begin(), computation_time.end());
  PALS_CHECK_MSG(t_max > 0.0, "all ranks have zero computation");
  // Snapped/gear-discretized callers legitimately hand a total_time an
  // ulp under the critical compute time (the replayed makespan and the
  // compute profile round independently); refuse only a real deficit.
  PALS_CHECK_MSG(total_time >= t_max * (1.0 - 1e-9),
                 "total time below the critical computation time");

  const PowerModel power(config.power);
  const VoltageModel vm = VoltageModel::paper_default();
  const double fref = config.power.reference.frequency_ghz;
  const double beta = config.power.beta;

  // Communication/synchronization outside computation is frequency
  // independent; the computation budget absorbs the whole allowed delay.
  // When fmax sits below the reference frequency even running flat out
  // stretches the critical rank beyond that budget; relax to that floor
  // so every rank keeps an admissible frequency and predicted_time
  // reports the honest synchronized finish instead of under-reporting.
  const Seconds comm = std::max(0.0, total_time - t_max);
  const double stretch_at_fmax =
      beta * (fref / config.fmax_ghz - 1.0) + 1.0;
  const Seconds compute_budget =
      std::max((1.0 + allowed_slowdown) * total_time - comm,
               t_max * stretch_at_fmax);
  const Seconds new_total = compute_budget + comm;

  EnergyBound bound;
  bound.predicted_time = new_total;
  bound.frequency_ghz.reserve(computation_time.size());

  // Every term that depends only on the frequency is evaluated once: at
  // the reference and range ends, and over the search grid of each lower
  // end. Every rank that clamps to fmin shares one grid; any other lower
  // end is rebuilt only when it differs from the previous rank's.
  const FrequencyPoint at_fref(power, vm, fref, fref, beta);
  const FrequencyPoint at_fmin(power, vm, config.fmin_ghz, fref, beta);
  const FrequencyPoint at_fmax(power, vm, config.fmax_ghz, fref, beta);
  std::vector<FrequencyPoint> fmin_grid;
  std::vector<FrequencyPoint> other_grid;
  double other_f_lo = 0.0;
  const auto grid_from = [&](double f_lo) -> const std::vector<FrequencyPoint>& {
    if (f_lo == config.fmin_ghz) {
      if (fmin_grid.empty())
        fmin_grid = frequency_grid(power, vm, f_lo, config.fmax_ghz, fref, beta);
      return fmin_grid;
    }
    if (other_grid.empty() || f_lo != other_f_lo) {
      other_grid = frequency_grid(power, vm, f_lo, config.fmax_ghz, fref, beta);
      other_f_lo = f_lo;
    }
    return other_grid;
  };

  double energy = 0.0;
  double baseline_energy = 0.0;
  for (const Seconds t : computation_time) {
    baseline_energy += at_fref.energy(t, total_time);
    if (t == 0.0) {
      bound.frequency_ghz.push_back(config.fmin_ghz);
      energy += at_fmin.energy(0.0, new_total);
      continue;
    }
    // Lowest admissible frequency: computation must fit the budget
    // (ideal_frequency returns 0 for "any frequency works" and +inf for
    // "unreachable"; clamp maps those onto the range ends).
    const double f_required =
        ideal_frequency(t, compute_budget, fref, beta);
    const double f_lo =
        std::clamp(f_required, config.fmin_ghz, config.fmax_ghz);
    // Grid over [f_lo, fmax]: energy is smooth in f.
    double best_f = config.fmax_ghz;
    double best_e = at_fmax.energy(t * at_fmax.stretch, new_total);
    for (const FrequencyPoint& point : grid_from(f_lo)) {
      const double e = point.energy(t * point.stretch, new_total);
      if (e < best_e) {
        best_e = e;
        best_f = point.f_ghz;
      }
    }
    bound.frequency_ghz.push_back(best_f);
    energy += best_e;
  }
  bound.normalized_energy = energy / baseline_energy;
  return bound;
}

}  // namespace pals
