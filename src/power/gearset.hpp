// DVFS gear sets and the linear voltage-frequency model (paper §3.3).
//
// Voltage is a linear function of frequency through the two anchor points
// (0.8 GHz, 1.0 V) and (2.3 GHz, 1.5 V); over-clocked gears extrapolate the
// same line (the paper's extra discrete gear (2.6 GHz, 1.6 V) lies on it).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace pals {

/// One frequency-voltage operating point.
struct Gear {
  double frequency_ghz = 0.0;
  double voltage_v = 0.0;

  bool operator==(const Gear&) const = default;
};

/// Linear V(f) determined by two anchor points.
class VoltageModel {
public:
  VoltageModel(double f1_ghz, double v1, double f2_ghz, double v2);

  /// Voltage at `f_ghz`, extrapolating outside the anchor range.
  double voltage(double f_ghz) const;

  Gear gear(double f_ghz) const { return Gear{f_ghz, voltage(f_ghz)}; }

  /// The paper's model: (0.8 GHz, 1.0 V) – (2.3 GHz, 1.5 V).
  static VoltageModel paper_default();

private:
  double slope_;
  double intercept_;
};

/// A set of allowed CPU operating points. Continuous sets allow any
/// frequency in [fmin, fmax]; discrete sets restrict to enumerated gears.
///
/// The paper's assignment rule is implemented by snap_up(): the lowest
/// available frequency that is >= the ideal frequency (never slower than
/// the target computation time allows).
class GearSet {
public:
  /// Continuous range [fmin, fmax] (paper: "unlimited" uses fmin ~ 0).
  static GearSet continuous(double fmin_ghz, double fmax_ghz,
                            const VoltageModel& vm);
  /// `n` evenly spaced gears spanning [fmin, fmax] inclusive (Table 1).
  static GearSet uniform(int n, double fmin_ghz, double fmax_ghz,
                         const VoltageModel& vm);
  /// `n` gears where each gap going down doubles (Table 2): denser near
  /// fmax, favouring well-balanced applications.
  static GearSet exponential(int n, double fmin_ghz, double fmax_ghz,
                             const VoltageModel& vm);

  bool is_continuous() const { return continuous_; }
  double fmin() const { return fmin_; }
  double fmax() const { return fmax_; }
  std::size_t size() const;  ///< gear count; 0 for continuous sets

  /// Discrete gears sorted ascending; empty for continuous sets.
  std::span<const Gear> gears() const { return gears_; }

  /// Lowest admissible frequency >= `f_ghz`; clamps to [fmin, fmax].
  double snap_up(double f_ghz) const;
  /// Closest admissible frequency (used by the snap-policy ablation; may
  /// violate the target computation time by rounding down).
  double snap_nearest(double f_ghz) const;
  /// snap_up plus the model voltage.
  Gear operating_point(double f_ghz) const;
  /// snap_nearest plus the model voltage.
  Gear operating_point_nearest(double f_ghz) const;
  /// Slowest admissible operating point (fmin for continuous sets); used
  /// by the gear_stuck fault to pin a rank to an extreme gear.
  Gear min_gear() const;
  /// Fastest admissible operating point (fmax for continuous sets).
  Gear max_gear() const;

  /// Extend a discrete set with an over-clock gear (e.g. 2.6 GHz, 1.6 V);
  /// fmax becomes the new gear's frequency.
  GearSet with_extra_gear(const Gear& gear) const;
  /// Raise a continuous set's fmax by `factor` (e.g. 1.1 = +10 % OC).
  GearSet with_fmax_scaled(double factor) const;

  /// For reports.
  std::string describe() const;

private:
  GearSet() = default;

  bool continuous_ = false;
  double fmin_ = 0.0;
  double fmax_ = 0.0;
  std::vector<Gear> gears_;  // ascending; empty iff continuous
  VoltageModel vm_ = VoltageModel::paper_default();
  std::string label_;
};

/// Paper constants.
inline constexpr double kPaperFminGhz = 0.8;
inline constexpr double kPaperFmaxGhz = 2.3;
/// Lower bound used for the "unlimited" continuous set; the paper says
/// "from 0", which we approximate with a small positive floor so the time
/// model stays finite.
inline constexpr double kUnlimitedFloorGhz = 0.01;

/// The paper's named sets.
GearSet paper_unlimited_continuous();
GearSet paper_limited_continuous();
GearSet paper_uniform(int n_gears);
GearSet paper_exponential(int n_gears);
/// Uniform 6-gear set + (2.6 GHz, 1.6 V) used by the discrete AVG study.
GearSet paper_avg_discrete();

/// Look up a gear set by the CLI/grid-file name: unlimited, limited,
/// limited-ocP (the limited set with fmax over-clocked by P %), uniform-N,
/// exponential-N, avg-discrete (continuous-unlimited and
/// continuous-limited are accepted as aliases of the first two). Throws
/// pals::Error listing the options for unknown names.
GearSet gear_set_by_name(const std::string& name);

}  // namespace pals
