#include "core/controllers.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace pals {

std::string to_string(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kStatic: return "static";
    case ControllerKind::kDynamicMax: return "dynamic_max";
    case ControllerKind::kDynamicAvg: return "dynamic_avg";
    case ControllerKind::kSlack: return "slack";
    case ControllerKind::kEwma: return "ewma";
  }
  throw Error("invalid ControllerKind enum value");
}

ControllerKind controller_by_name(const std::string& name) {
  if (name == "static") return ControllerKind::kStatic;
  if (name == "dynamic_max") return ControllerKind::kDynamicMax;
  if (name == "dynamic_avg") return ControllerKind::kDynamicAvg;
  if (name == "slack") return ControllerKind::kSlack;
  if (name == "ewma") return ControllerKind::kEwma;
  throw Error("unknown controller '" + name +
              "' (try static, dynamic_max, dynamic_avg, slack, ewma)");
}

std::vector<std::string> controller_names() {
  return {"static", "dynamic_max", "dynamic_avg", "slack", "ewma"};
}

void ControllerOptions::validate() const {
  PALS_CHECK_MSG(transition_latency >= 0.0,
                 "transition latency must be non-negative");
  PALS_CHECK_MSG(transition_energy >= 0.0,
                 "transition energy must be non-negative");
  PALS_CHECK_MSG(slack_threshold > 0.0 && slack_threshold < 1.0,
                 "slack threshold must lie in (0, 1)");
  PALS_CHECK_MSG(hysteresis >= 0.0 && hysteresis < 1.0,
                 "hysteresis must lie in [0, 1)");
  PALS_CHECK_MSG(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
                 "ewma alpha must lie in (0, 1]");
}

namespace {

/// Shared plumbing: the one-shot solve (dispatching on algorithm) and the
/// load-vector reconstruction from DVFS-stretched observations.
class ControllerBase : public Controller {
 public:
  ControllerBase(const ControllerOptions& options,
                 const AlgorithmConfig& algorithm,
                 const PowerModelConfig& power)
      : options_(options), algorithm_(algorithm), model_(power) {}

 protected:
  std::vector<Gear> solve(std::span<const Seconds> loads) const {
    return assign_frequencies(loads, algorithm_, model_.config()).gears;
  }

  /// Invert the β time model: the reference-frequency load that produced
  /// `observed` seconds at `gear`.
  std::vector<Seconds> reconstruct_loads(
      const IterationObservation& obs) const {
    std::vector<Seconds> loads(obs.observed_compute.size());
    for (std::size_t r = 0; r < loads.size(); ++r) {
      const double scale =
          model_.time_scale(obs.applied_gears[r].frequency_ghz);
      loads[r] = scale > 0.0 ? obs.observed_compute[r] / scale : 0.0;
    }
    return loads;
  }

  static Seconds max_time(std::span<const Seconds> times) {
    Seconds t = 0.0;
    for (const Seconds x : times) t = std::max(t, x);
    return t;
  }

  ControllerOptions options_;
  AlgorithmConfig algorithm_;
  PowerModel model_;
};

/// Degenerate adapter: solve the configured one-shot algorithm on the
/// whole-run profile and hold the assignment forever. Reproduces the
/// paper's MAX/AVG (and kEnergyOptimalMax) gear-for-gear.
class StaticController final : public ControllerBase {
 public:
  using ControllerBase::ControllerBase;

  std::string name() const override { return "static"; }

  std::vector<Gear> start(const ControllerSeed& seed) override {
    gears_ = solve(seed.total_compute);
    return gears_;
  }

  std::vector<Gear> observe(const IterationObservation&) override {
    return gears_;
  }

 private:
  std::vector<Gear> gears_;
};

/// Per-iteration re-solve of a fixed one-shot algorithm on the previous
/// iteration's reconstructed load vector. On a drift-free trace every
/// re-solve reproduces the static assignment (property-tested).
class ResolveController final : public ControllerBase {
 public:
  ResolveController(const ControllerOptions& options,
                    const AlgorithmConfig& algorithm,
                    const PowerModelConfig& power, Algorithm resolve_as,
                    std::string name)
      : ControllerBase(options, algorithm, power), name_(std::move(name)) {
    algorithm_.algorithm = resolve_as;
  }

  std::string name() const override { return name_; }

  std::vector<Gear> start(const ControllerSeed& seed) override {
    return solve(seed.total_compute);
  }

  std::vector<Gear> observe(const IterationObservation& obs) override {
    const std::vector<Seconds> loads = reconstruct_loads(obs);
    if (max_time(loads) <= 0.0) return obs.applied_gears;  // no signal
    return solve(loads);
  }

 private:
  std::string name_;
};

/// Proportional slack tracker with hysteresis and a gear-switch cost
/// model. A rank whose relative slack exceeds the threshold re-targets
/// the observed critical path *minus a safety margin of one threshold*
/// (ideal_frequency + snap-up), so a slowly drifting load has headroom
/// before it touches the critical path; a rank whose slack falls below
/// threshold·hysteresis jumps back to the nominal-speed gear in one step
/// (gradual climbing would stretch the critical path for several
/// iterations under drifting imbalance), and because the jump fires
/// while the rank still has threshold·hysteresis of slack, a drift
/// slower than that per iteration never crosses the critical path at
/// all. Down-shifts only happen when the predicted per-iteration energy
/// saving exceeds the transition cost, so expensive regulators
/// naturally damp oscillation.
class SlackController final : public ControllerBase {
 public:
  using ControllerBase::ControllerBase;

  std::string name() const override { return "slack"; }

  std::vector<Gear> start(const ControllerSeed& seed) override {
    // Profile-seeded: begin from the static MAX solution instead of the
    // top gear, so drift-free runs never pay a convergence transient.
    AlgorithmConfig max_config = algorithm_;
    max_config.algorithm = Algorithm::kMax;
    return assign_frequencies(seed.total_compute, max_config).gears;
  }

  std::vector<Gear> observe(const IterationObservation& obs) override {
    const Seconds t_max = max_time(obs.observed_compute);
    if (t_max <= 0.0) return obs.applied_gears;
    const std::vector<Seconds> loads = reconstruct_loads(obs);
    std::vector<Gear> next = obs.applied_gears;
    for (std::size_t r = 0; r < next.size(); ++r) {
      const double slack = (t_max - obs.observed_compute[r]) / t_max;
      if (slack > options_.slack_threshold) {
        const Seconds target =
            (1.0 - options_.slack_threshold) * t_max;
        const double ideal =
            ideal_frequency(loads[r], target, algorithm_.nominal_fmax_ghz,
                            algorithm_.beta);
        if (ideal <= 0.0 || std::isinf(ideal)) continue;
        const Gear candidate = algorithm_.gear_set.operating_point(ideal);
        if (candidate.frequency_ghz <
                next[r].frequency_ghz - 1e-12 &&
            switch_pays_off(loads[r], next[r], candidate, t_max)) {
          next[r] = candidate;
        }
      } else if (slack < options_.slack_threshold * options_.hysteresis) {
        // On (or near) the critical path: restore nominal speed. The
        // snap-up of the nominal fmax is the slowest gear that is not
        // slower than the reference — never an over-clock the time
        // contract did not ask for.
        const Gear top =
            algorithm_.gear_set.operating_point(algorithm_.nominal_fmax_ghz);
        if (next[r].frequency_ghz < top.frequency_ghz - 1e-12) next[r] = top;
      }
    }
    return next;
  }

 private:
  /// Energy of one rank over a window of `span` seconds: computing for
  /// the stretched load, waiting (at communication activity) after.
  double window_energy(Seconds load, const Gear& gear, Seconds span) const {
    const Seconds busy =
        std::min(span, load * model_.time_scale(gear.frequency_ghz));
    return model_.total_power(gear, true) * busy +
           model_.total_power(gear, false) * std::max(span - busy, 0.0);
  }

  bool switch_pays_off(Seconds load, const Gear& from, const Gear& to,
                       Seconds span) const {
    const double gain =
        window_energy(load, from, span) - window_energy(load, to, span);
    // The stall burns compute-level power at the new gear on top of the
    // per-switch regulator energy.
    const double cost =
        options_.transition_energy +
        options_.transition_latency * model_.total_power(to, true);
    return gain > cost;
  }
};

/// EWMA load predictor feeding the re-solver: the smoothed load vector
/// tracks slow drift while averaging out per-iteration jitter that would
/// make the plain re-solver thrash.
class EwmaController final : public ControllerBase {
 public:
  using ControllerBase::ControllerBase;

  std::string name() const override { return "ewma"; }

  std::vector<Gear> start(const ControllerSeed& seed) override {
    // Seed the filter with the per-iteration average so the first real
    // observation mixes comparable magnitudes.
    smoothed_ = seed.total_compute;
    if (seed.iterations > 1) {
      const double inv = 1.0 / static_cast<double>(seed.iterations);
      for (Seconds& s : smoothed_) s *= inv;
    }
    return solve(smoothed_);
  }

  std::vector<Gear> observe(const IterationObservation& obs) override {
    const std::vector<Seconds> loads = reconstruct_loads(obs);
    for (std::size_t r = 0; r < smoothed_.size(); ++r) {
      smoothed_[r] = options_.ewma_alpha * loads[r] +
                     (1.0 - options_.ewma_alpha) * smoothed_[r];
    }
    if (max_time(smoothed_) <= 0.0) return obs.applied_gears;
    return solve(smoothed_);
  }

 private:
  std::vector<Seconds> smoothed_;
};

}  // namespace

std::unique_ptr<Controller> make_controller(const ControllerOptions& options,
                                            const AlgorithmConfig& algorithm,
                                            const PowerModelConfig& power) {
  options.validate();
  switch (options.kind) {
    case ControllerKind::kStatic:
      return std::make_unique<StaticController>(options, algorithm, power);
    case ControllerKind::kDynamicMax:
      return std::make_unique<ResolveController>(
          options, algorithm, power, Algorithm::kMax, "dynamic_max");
    case ControllerKind::kDynamicAvg:
      return std::make_unique<ResolveController>(
          options, algorithm, power, Algorithm::kAvg, "dynamic_avg");
    case ControllerKind::kSlack:
      return std::make_unique<SlackController>(options, algorithm, power);
    case ControllerKind::kEwma:
      return std::make_unique<EwmaController>(options, algorithm, power);
  }
  throw Error("invalid ControllerKind enum value");
}

}  // namespace pals
