// Power-aware load-balancing algorithms (paper §3.1) — the core
// contribution.
//
// MAX (the static Jitter/Slack approach): pick, per rank, the lowest
// frequency at which its computation still finishes within the *maximum*
// original computation time. The most loaded rank stays at the top
// frequency; no rank is slowed past the critical path.
//
// AVG (the paper's new algorithm): balance computation times to the
// *average* original computation time instead. Ranks above the average are
// over-clocked. If the heaviest rank cannot reach the average even at the
// maximum allowed (over-clocked) frequency, the target is raised to the
// smallest attainable value, i.e. the closest to the average.
#pragma once

#include <span>
#include <vector>

#include "power/gearset.hpp"
#include "power/power_model.hpp"
#include "trace/types.hpp"

namespace pals {

/// kMax / kAvg are the paper's algorithms; kEnergyOptimalMax is our
/// refinement (see assign_frequencies_energy_optimal): same time contract
/// as MAX, energy-minimal gear choice instead of lowest-feasible.
enum class Algorithm { kMax, kAvg, kEnergyOptimalMax };

std::string to_string(Algorithm algorithm);

/// How an ideal (continuous) frequency maps onto a discrete gear set. The
/// paper always snaps *up* (never slower than the target allows); nearest
/// snapping is provided for the ablation study — it saves more energy but
/// can stretch the critical path.
enum class SnapPolicy { kUp, kNearest };

struct AlgorithmConfig {
  Algorithm algorithm = Algorithm::kMax;
  GearSet gear_set = paper_limited_continuous();
  /// Memory-boundedness parameter of the time model.
  double beta = 0.5;
  /// Manufacturer-specified top frequency; trace durations are measured at
  /// this frequency and "over-clocked" means above it.
  double nominal_fmax_ghz = kPaperFmaxGhz;
  SnapPolicy snap_policy = SnapPolicy::kUp;

  void validate() const;
};

/// Outcome of frequency assignment for one application run.
struct FrequencyAssignment {
  /// Chosen operating point per rank.
  std::vector<Gear> gears;
  /// Ideal (pre-snap) frequency per rank; may lie below the set's fmin or
  /// above its fmax (then the gear is clamped).
  std::vector<double> ideal_frequency_ghz;
  /// The computation time every rank was balanced towards.
  Seconds target_time = 0.0;
  /// Predicted per-rank computation time at the chosen gear.
  std::vector<Seconds> predicted_time;

  std::size_t overclocked_count(double nominal_fmax_ghz) const;
  double overclocked_fraction(double nominal_fmax_ghz) const;
};

/// The ideal frequency that stretches a computation of length `time` (at
/// `fref`) to exactly `target`:  solve  β(fref/f − 1) + 1 = target/time.
/// Returns +infinity when the required speed-up is unreachable even at
/// infinite frequency (target/time <= 1 − β), and 0 when β == 0 and the
/// rank has slack (any frequency works — callers snap up to fmin).
double ideal_frequency(Seconds time, Seconds target, double fref_ghz,
                       double beta);

/// Assign one frequency per rank given original computation times.
/// `computation_time[k]` must be >= 0; ranks with zero computation get the
/// set's minimum frequency.
FrequencyAssignment assign_frequencies(
    std::span<const Seconds> computation_time, const AlgorithmConfig& config);

/// Per-phase variant (used by the ablation study): a separate assignment
/// per computation phase. `computation_time[phase][rank]`.
std::vector<FrequencyAssignment> assign_frequencies_per_phase(
    const std::vector<std::vector<Seconds>>& computation_time,
    const AlgorithmConfig& config);

/// Energy-optimal discrete assignment (refinement of MAX): per rank, pick
/// the gear minimizing that rank's *energy* over the execution window,
/// subject to its stretched computation fitting the MAX target (the
/// original maximum computation time). MAX's snap-up rule picks the
/// lowest feasible frequency instead, which is only energy-optimal while
/// dynamic power dominates — with a large static fraction, idling longer
/// at a lower voltage can cost more than computing faster and waiting.
/// Ranks evaluate every feasible gear (discrete sets are small), so the
/// result is exactly optimal for the paper's power/time models.
FrequencyAssignment assign_frequencies_energy_optimal(
    std::span<const Seconds> computation_time, const AlgorithmConfig& config,
    const PowerModelConfig& power);

/// The one-shot assignment `config.algorithm` names: MAX and AVG through
/// assign_frequencies, kEnergyOptimalMax through the refinement above.
FrequencyAssignment assign_frequencies(
    std::span<const Seconds> computation_time, const AlgorithmConfig& config,
    const PowerModelConfig& power);

}  // namespace pals
