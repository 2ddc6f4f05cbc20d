#include "power/power_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pals {

void PowerModelConfig::validate() const {
  PALS_CHECK_MSG(activity_ratio >= 1.0,
                 "activity ratio must be >= 1 (compute at least as active "
                 "as communication)");
  PALS_CHECK_MSG(static_fraction >= 0.0 && static_fraction < 1.0,
                 "static fraction must lie in [0, 1)");
  PALS_CHECK_MSG(beta >= 0.0 && beta <= 1.0, "beta must lie in [0, 1]");
  PALS_CHECK_MSG(reference.frequency_ghz > 0.0 && reference.voltage_v > 0.0,
                 "reference gear must be positive");
  PALS_CHECK_MSG(idle_scale > 0.0 && idle_scale <= 1.0,
                 "idle power scale must lie in (0, 1]");
}

PowerModel::PowerModel(const PowerModelConfig& config) : config_(config) {
  config_.validate();
  activity_compute_ = 1.0;
  activity_comm_ = 1.0 / config_.activity_ratio;
  // Calibrate alpha so that static power is `static_fraction` of total CPU
  // power when computing at the reference gear:
  //   alpha*V = sf * (A*C*f*V^2 + alpha*V)  =>
  //   alpha = sf/(1-sf) * A*C*f*V
  const double f = config_.reference.frequency_ghz;
  const double v = config_.reference.voltage_v;
  alpha_ = config_.static_fraction / (1.0 - config_.static_fraction) *
           activity_compute_ * f * v;
}

double PowerModel::dynamic_power(const Gear& gear, bool computing) const {
  const double a = computing ? activity_compute_ : activity_comm_;
  return a * gear.frequency_ghz * gear.voltage_v * gear.voltage_v;
}

double PowerModel::static_power(const Gear& gear) const {
  return alpha_ * gear.voltage_v;
}

double PowerModel::total_power(const Gear& gear, bool computing) const {
  const double power = dynamic_power(gear, computing) + static_power(gear);
  return computing ? power : power * config_.idle_scale;
}

double PowerModel::time_scale(double f_ghz) const {
  return time_scale(f_ghz, config_.beta);
}

double PowerModel::time_scale(double f_ghz, double beta) const {
  PALS_CHECK_MSG(f_ghz > 0.0, "time_scale requires positive frequency");
  PALS_CHECK_MSG(beta >= 0.0 && beta <= 1.0, "beta must lie in [0, 1]");
  return beta * (config_.reference.frequency_ghz / f_ghz - 1.0) + 1.0;
}

double PowerModel::rank_energy(const Timeline& timeline, Rank rank,
                               const Gear& gear) const {
  return lane_energy(timeline, rank, timeline.makespan(),
                     [&gear](Rank, const StateInterval&) -> const Gear& {
                       return gear;
                     });
}

namespace {

/// gear_of for a whole-run gear per rank.
struct RankGears {
  std::span<const Gear> gears;
  const Gear& operator()(Rank rank, const StateInterval&) const {
    return gears[static_cast<std::size_t>(rank)];
  }
};

void check_gear_count(const Timeline& timeline, std::span<const Gear> gears) {
  PALS_CHECK_MSG(gears.size() == static_cast<std::size_t>(timeline.n_ranks()),
                 "gear count " << gears.size() << " != rank count "
                               << timeline.n_ranks());
}

}  // namespace

double PowerModel::total_energy(const Timeline& timeline,
                                std::span<const Gear> gears) const {
  check_gear_count(timeline, gears);
  return energy(timeline, RankGears{gears});
}

double PowerModel::baseline_energy(const Timeline& timeline) const {
  const std::vector<Gear> gears(static_cast<std::size_t>(timeline.n_ranks()),
                                config_.reference);
  return total_energy(timeline, gears);
}

std::vector<double> PowerModel::power_series(const Timeline& timeline,
                                             std::span<const Gear> gears,
                                             Seconds dt) const {
  check_gear_count(timeline, gears);
  return power_series(timeline, RankGears{gears}, dt);
}

}  // namespace pals
