#include "core/algorithms.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace pals {

std::string to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kMax: return "MAX";
    case Algorithm::kAvg: return "AVG";
    case Algorithm::kEnergyOptimalMax: return "EOPT-MAX";
  }
  throw Error("invalid Algorithm enum value");
}

void AlgorithmConfig::validate() const {
  PALS_CHECK_MSG(beta >= 0.0 && beta <= 1.0, "beta must lie in [0, 1]");
  PALS_CHECK_MSG(nominal_fmax_ghz > 0.0, "nominal fmax must be positive");
  PALS_CHECK_MSG(gear_set.fmax() > 0.0, "gear set has no usable frequencies");
}

std::size_t FrequencyAssignment::overclocked_count(
    double nominal_fmax_ghz) const {
  std::size_t n = 0;
  for (const Gear& g : gears)
    if (g.frequency_ghz > nominal_fmax_ghz + 1e-12) ++n;
  return n;
}

double FrequencyAssignment::overclocked_fraction(
    double nominal_fmax_ghz) const {
  if (gears.empty()) return 0.0;
  return static_cast<double>(overclocked_count(nominal_fmax_ghz)) /
         static_cast<double>(gears.size());
}

double ideal_frequency(Seconds time, Seconds target, double fref_ghz,
                       double beta) {
  PALS_CHECK_MSG(time >= 0.0, "computation time must be non-negative");
  PALS_CHECK_MSG(target > 0.0, "target time must be positive");
  PALS_CHECK_MSG(fref_ghz > 0.0, "reference frequency must be positive");
  if (time == 0.0) return 0.0;  // no computation: run as slowly as possible
  const double s = target / time;  // allowed stretch factor
  if (beta == 0.0) {
    // Frequency does not affect execution time at all.
    if (s >= 1.0) return 0.0;  // any frequency meets the target
    return std::numeric_limits<double>::infinity();  // speed-up impossible
  }
  const double denom = s - 1.0 + beta;
  if (denom <= 0.0) {
    // Even f -> infinity only reaches a stretch of (1 - beta).
    return std::numeric_limits<double>::infinity();
  }
  return fref_ghz * beta / denom;
}

namespace {

/// Snap an ideal frequency into the gear set. Ideal values of 0 mean
/// "anything goes" (use fmin); +inf means "fastest available" (use fmax).
Gear choose_gear(const GearSet& set, double ideal, SnapPolicy policy) {
  if (ideal <= 0.0) return set.operating_point(set.fmin());
  if (std::isinf(ideal)) return set.operating_point(set.fmax());
  return policy == SnapPolicy::kUp ? set.operating_point(ideal)
                                   : set.operating_point_nearest(ideal);
}

/// Stretch factor of the time model at frequency f.
double stretch(double f_ghz, double fref_ghz, double beta) {
  return beta * (fref_ghz / f_ghz - 1.0) + 1.0;
}

FrequencyAssignment assign_for_target(
    std::span<const Seconds> computation_time, Seconds target,
    const AlgorithmConfig& config) {
  FrequencyAssignment out;
  out.target_time = target;
  out.gears.reserve(computation_time.size());
  out.ideal_frequency_ghz.reserve(computation_time.size());
  out.predicted_time.reserve(computation_time.size());
  for (const Seconds t : computation_time) {
    const double ideal =
        ideal_frequency(t, target, config.nominal_fmax_ghz, config.beta);
    const Gear gear = choose_gear(config.gear_set, ideal, config.snap_policy);
    out.ideal_frequency_ghz.push_back(ideal);
    out.gears.push_back(gear);
    out.predicted_time.push_back(
        t * stretch(gear.frequency_ghz, config.nominal_fmax_ghz, config.beta));
  }
  return out;
}

}  // namespace

FrequencyAssignment assign_frequencies(
    std::span<const Seconds> computation_time, const AlgorithmConfig& config) {
  config.validate();
  PALS_CHECK_MSG(!computation_time.empty(), "no ranks to assign");
  for (const Seconds t : computation_time)
    PALS_CHECK_MSG(t >= 0.0, "negative computation time");

  const Seconds t_max =
      *std::max_element(computation_time.begin(), computation_time.end());
  PALS_CHECK_MSG(t_max > 0.0, "all ranks have zero computation");
  PALS_CHECK_MSG(config.algorithm != Algorithm::kEnergyOptimalMax,
                 "use assign_frequencies_energy_optimal (it needs a power "
                 "model)");

  Seconds target = t_max;
  if (config.algorithm == Algorithm::kAvg) {
    const Seconds t_avg =
        std::accumulate(computation_time.begin(), computation_time.end(),
                        0.0) /
        static_cast<double>(computation_time.size());
    // Smallest computation time the heaviest rank can attain at the
    // fastest allowed (possibly over-clocked) frequency.
    const Seconds attainable =
        t_max *
        stretch(config.gear_set.fmax(), config.nominal_fmax_ghz, config.beta);
    target = std::max(t_avg, attainable);
  }
  return assign_for_target(computation_time, target, config);
}

std::vector<FrequencyAssignment> assign_frequencies_per_phase(
    const std::vector<std::vector<Seconds>>& computation_time,
    const AlgorithmConfig& config) {
  PALS_CHECK_MSG(!computation_time.empty(), "no phases to assign");
  std::vector<FrequencyAssignment> out;
  out.reserve(computation_time.size());
  for (const auto& phase_times : computation_time)
    out.push_back(assign_frequencies(phase_times, config));
  return out;
}

FrequencyAssignment assign_frequencies(
    std::span<const Seconds> computation_time, const AlgorithmConfig& config,
    const PowerModelConfig& power) {
  return config.algorithm == Algorithm::kEnergyOptimalMax
             ? assign_frequencies_energy_optimal(computation_time, config,
                                                 power)
             : assign_frequencies(computation_time, config);
}

FrequencyAssignment assign_frequencies_energy_optimal(
    std::span<const Seconds> computation_time, const AlgorithmConfig& config,
    const PowerModelConfig& power_config) {
  config.validate();
  PALS_CHECK_MSG(!config.gear_set.is_continuous(),
                 "energy-optimal assignment enumerates discrete gears; use "
                 "core/bound.hpp for the continuous case");
  PALS_CHECK_MSG(!computation_time.empty(), "no ranks to assign");
  PALS_CHECK_MSG(power_config.beta == config.beta,
                 "algorithm beta and power-model beta must agree");
  const PowerModel power(power_config);

  const Seconds t_max =
      *std::max_element(computation_time.begin(), computation_time.end());
  PALS_CHECK_MSG(t_max > 0.0, "all ranks have zero computation");

  FrequencyAssignment out;
  out.target_time = t_max;
  out.gears.reserve(computation_time.size());
  out.ideal_frequency_ghz.reserve(computation_time.size());
  out.predicted_time.reserve(computation_time.size());
  for (const Seconds t : computation_time) {
    // The execution window every rank lives in is the MAX target; the
    // rank computes for its stretched time and idles (communication
    // activity) for the rest.
    const Gear* best = nullptr;
    Seconds best_time = 0.0;
    double best_energy = std::numeric_limits<double>::infinity();
    for (const Gear& gear : config.gear_set.gears()) {
      if (gear.frequency_ghz > config.nominal_fmax_ghz + 1e-12)
        continue;  // no over-clocking under the MAX contract
      const Seconds stretched =
          t * stretch(gear.frequency_ghz, config.nominal_fmax_ghz,
                      config.beta);
      const bool feasible =
          stretched <= t_max + 1e-12 ||
          gear.frequency_ghz >= config.nominal_fmax_ghz - 1e-12;
      if (!feasible) continue;
      const double energy =
          stretched * power.total_power(gear, /*computing=*/true) +
          std::max(0.0, t_max - stretched) *
              power.total_power(gear, /*computing=*/false);
      if (energy < best_energy) {
        best_energy = energy;
        best = &gear;
        best_time = stretched;
      }
    }
    PALS_CHECK_MSG(best != nullptr, "no feasible gear found");
    out.gears.push_back(*best);
    out.ideal_frequency_ghz.push_back(best->frequency_ghz);
    out.predicted_time.push_back(best_time);
  }
  return out;
}

std::vector<Seconds> slack_times(std::span<const Seconds> computation_time) {
  PALS_CHECK_MSG(!computation_time.empty(), "no ranks");
  const Seconds t_max =
      *std::max_element(computation_time.begin(), computation_time.end());
  std::vector<Seconds> slack;
  slack.reserve(computation_time.size());
  for (const Seconds t : computation_time) slack.push_back(t_max - t);
  return slack;
}

}  // namespace pals
