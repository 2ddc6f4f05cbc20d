#include "power/gearset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pals {

VoltageModel::VoltageModel(double f1_ghz, double v1, double f2_ghz,
                           double v2) {
  PALS_CHECK_MSG(f1_ghz != f2_ghz, "voltage anchors need distinct frequencies");
  slope_ = (v2 - v1) / (f2_ghz - f1_ghz);
  intercept_ = v1 - slope_ * f1_ghz;
}

double VoltageModel::voltage(double f_ghz) const {
  PALS_CHECK_MSG(f_ghz > 0.0, "voltage model requires positive frequency");
  const double v = slope_ * f_ghz + intercept_;
  PALS_CHECK_MSG(v > 0.0, "voltage model yields non-positive voltage at "
                              << f_ghz << " GHz");
  return v;
}

VoltageModel VoltageModel::paper_default() {
  return VoltageModel(kPaperFminGhz, 1.0, kPaperFmaxGhz, 1.5);
}

GearSet GearSet::continuous(double fmin_ghz, double fmax_ghz,
                            const VoltageModel& vm) {
  PALS_CHECK_MSG(fmin_ghz > 0.0 && fmin_ghz <= fmax_ghz,
                 "continuous set needs 0 < fmin <= fmax");
  GearSet set;
  set.continuous_ = true;
  set.fmin_ = fmin_ghz;
  set.fmax_ = fmax_ghz;
  set.vm_ = vm;
  std::ostringstream os;
  os << "continuous[" << format_fixed(fmin_ghz, 2) << ", "
     << format_fixed(fmax_ghz, 2) << "]";
  set.label_ = os.str();
  return set;
}

GearSet GearSet::uniform(int n, double fmin_ghz, double fmax_ghz,
                         const VoltageModel& vm) {
  PALS_CHECK_MSG(n >= 2, "uniform set needs >= 2 gears");
  PALS_CHECK_MSG(fmin_ghz > 0.0 && fmin_ghz < fmax_ghz,
                 "uniform set needs 0 < fmin < fmax");
  GearSet set;
  set.continuous_ = false;
  set.fmin_ = fmin_ghz;
  set.fmax_ = fmax_ghz;
  set.vm_ = vm;
  const double step = (fmax_ghz - fmin_ghz) / static_cast<double>(n - 1);
  for (int i = 0; i < n; ++i) {
    const double f = fmin_ghz + step * static_cast<double>(i);
    set.gears_.push_back(vm.gear(f));
  }
  set.gears_.back().frequency_ghz = fmax_ghz;  // avoid FP drift on the top gear
  set.label_ = "uniform-" + std::to_string(n);
  return set;
}

GearSet GearSet::exponential(int n, double fmin_ghz, double fmax_ghz,
                             const VoltageModel& vm) {
  PALS_CHECK_MSG(n >= 2, "exponential set needs >= 2 gears");
  PALS_CHECK_MSG(fmin_ghz > 0.0 && fmin_ghz < fmax_ghz,
                 "exponential set needs 0 < fmin < fmax");
  GearSet set;
  set.continuous_ = false;
  set.fmin_ = fmin_ghz;
  set.fmax_ = fmax_ghz;
  set.vm_ = vm;
  // Gaps from the top double on the way down: g, 2g, 4g, ... (n-1 gaps).
  const double range = fmax_ghz - fmin_ghz;
  const double unit = range / (std::pow(2.0, n - 1) - 1.0);
  double f = fmax_ghz;
  std::vector<double> freqs{f};
  for (int i = 0; i < n - 1; ++i) {
    f -= unit * std::pow(2.0, i);
    freqs.push_back(f);
  }
  std::reverse(freqs.begin(), freqs.end());
  freqs.front() = fmin_ghz;  // absorb FP drift at the bottom gear
  for (double fr : freqs) set.gears_.push_back(vm.gear(fr));
  set.label_ = "exponential-" + std::to_string(n);
  return set;
}

std::size_t GearSet::size() const { return gears_.size(); }

double GearSet::snap_up(double f_ghz) const {
  PALS_CHECK_MSG(f_ghz > 0.0, "snap_up requires positive frequency");
  if (f_ghz >= fmax_) return fmax_;
  if (continuous_) return std::max(f_ghz, fmin_);
  const double target = std::max(f_ghz, fmin_);
  for (const Gear& g : gears_) {
    // Tiny tolerance so an ideal frequency equal to a gear picks that gear.
    if (g.frequency_ghz >= target - 1e-12) return g.frequency_ghz;
  }
  return fmax_;
}

double GearSet::snap_nearest(double f_ghz) const {
  PALS_CHECK_MSG(f_ghz > 0.0, "snap_nearest requires positive frequency");
  if (f_ghz >= fmax_) return fmax_;
  if (continuous_) return std::max(f_ghz, fmin_);
  double best = fmax_;
  double best_distance = std::numeric_limits<double>::infinity();
  for (const Gear& g : gears_) {
    const double distance = std::abs(g.frequency_ghz - f_ghz);
    if (distance < best_distance) {
      best_distance = distance;
      best = g.frequency_ghz;
    }
  }
  return best;
}

namespace {

Gear stored_or_modeled(const std::vector<Gear>& gears, double f,
                       const VoltageModel& vm) {
  // Return the stored gear so callers see the exact tabulated voltage.
  for (const Gear& g : gears)
    if (std::abs(g.frequency_ghz - f) <= 1e-12) return g;
  return vm.gear(f);
}

}  // namespace

Gear GearSet::operating_point(double f_ghz) const {
  const double f = snap_up(f_ghz);
  if (!continuous_) return stored_or_modeled(gears_, f, vm_);
  return vm_.gear(f);
}

Gear GearSet::operating_point_nearest(double f_ghz) const {
  const double f = snap_nearest(f_ghz);
  if (!continuous_) return stored_or_modeled(gears_, f, vm_);
  return vm_.gear(f);
}

Gear GearSet::min_gear() const {
  if (!continuous_) return gears_.front();
  return vm_.gear(fmin_);
}

Gear GearSet::max_gear() const {
  if (!continuous_) return gears_.back();
  return vm_.gear(fmax_);
}

GearSet GearSet::with_extra_gear(const Gear& gear) const {
  PALS_CHECK_MSG(!continuous_,
                 "with_extra_gear applies to discrete sets; use "
                 "with_fmax_scaled for continuous sets");
  PALS_CHECK_MSG(gear.frequency_ghz > 0.0 && gear.voltage_v > 0.0,
                 "extra gear must have positive frequency and voltage");
  GearSet set = *this;
  set.gears_.push_back(gear);
  std::sort(set.gears_.begin(), set.gears_.end(),
            [](const Gear& a, const Gear& b) {
              return a.frequency_ghz < b.frequency_ghz;
            });
  set.fmin_ = set.gears_.front().frequency_ghz;
  set.fmax_ = set.gears_.back().frequency_ghz;
  set.label_ += "+oc" + format_fixed(gear.frequency_ghz, 2);
  return set;
}

GearSet GearSet::with_fmax_scaled(double factor) const {
  PALS_CHECK_MSG(continuous_,
                 "with_fmax_scaled applies to continuous sets; use "
                 "with_extra_gear for discrete sets");
  PALS_CHECK_MSG(factor >= 1.0, "over-clock factor must be >= 1");
  GearSet set = *this;
  set.fmax_ = fmax_ * factor;
  std::ostringstream os;
  os << label_ << "+oc" << format_fixed((factor - 1.0) * 100.0, 0) << "%";
  set.label_ = os.str();
  return set;
}

std::string GearSet::describe() const {
  if (continuous_) return label_;
  std::ostringstream os;
  os << label_ << " {";
  for (std::size_t i = 0; i < gears_.size(); ++i) {
    if (i) os << ", ";
    os << format_fixed(gears_[i].frequency_ghz, 2);
  }
  os << "} GHz";
  return os.str();
}

GearSet paper_unlimited_continuous() {
  return GearSet::continuous(kUnlimitedFloorGhz, kPaperFmaxGhz,
                             VoltageModel::paper_default());
}

GearSet paper_limited_continuous() {
  return GearSet::continuous(kPaperFminGhz, kPaperFmaxGhz,
                             VoltageModel::paper_default());
}

GearSet paper_uniform(int n_gears) {
  return GearSet::uniform(n_gears, kPaperFminGhz, kPaperFmaxGhz,
                          VoltageModel::paper_default());
}

GearSet paper_exponential(int n_gears) {
  return GearSet::exponential(n_gears, kPaperFminGhz, kPaperFmaxGhz,
                              VoltageModel::paper_default());
}

GearSet paper_avg_discrete() {
  return paper_uniform(6).with_extra_gear(Gear{2.6, 1.6});
}

GearSet gear_set_by_name(const std::string& name) {
  if (name == "unlimited" || name == "continuous-unlimited")
    return paper_unlimited_continuous();
  if (name == "limited" || name == "continuous-limited")
    return paper_limited_continuous();
  if (name == "avg-discrete") return paper_avg_discrete();
  if (starts_with(name, "limited-oc"))
    return paper_limited_continuous().with_fmax_scaled(
        (100.0 + static_cast<double>(parse_int(name.substr(10)))) / 100.0);
  if (starts_with(name, "uniform-"))
    return paper_uniform(static_cast<int>(parse_int(name.substr(8))));
  if (starts_with(name, "exponential-"))
    return paper_exponential(static_cast<int>(parse_int(name.substr(12))));
  throw Error("unknown gear set '" + name +
              "' (try unlimited, limited, limited-ocP, uniform-N, "
              "exponential-N, avg-discrete)");
}

}  // namespace pals
