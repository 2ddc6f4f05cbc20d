// Online DVFS controllers: the pluggable generalization of the paper's
// one-shot frequency assignment.
//
// The paper (§3.1) picks one gear per rank for the whole run. COUNTDOWN
// Slack (arXiv:1909.12684) and Guermouche et al. (arXiv:1502.06733) show
// the larger wins come from reacting to per-iteration slack at runtime.
// A Controller is that runtime's decision loop, factored out of the
// simulator: it is seeded with the whole-run profile, then observes each
// iteration's per-rank compute times (under the gears that actually ran)
// and returns the gears for the next iteration.
//
// The interface is deliberately minimal and pure — no clocks, no I/O, no
// hidden randomness — so controller-driven sweeps inherit the engine's
// byte-identical determinism across thread counts and resumes. Concrete
// controllers (static adapters, per-iteration re-solvers, the slack
// tracker, the EWMA predictor, the Jitter-style stepper) live in
// core/controllers.hpp; plan_schedule (core/gear_schedule.hpp) runs their
// start/observe loop and turns the decisions into the per-iteration gear
// schedule the replay applies. See docs/controllers.md.
#pragma once

#include <string>
#include <vector>

#include "power/gearset.hpp"
#include "trace/types.hpp"

namespace pals {

/// Whole-run profile handed to a controller before the first iteration.
/// Simulated studies always have it (the baseline replay ran already);
/// a profile-guided production runtime would get it from a pilot run.
struct ControllerSeed {
  std::size_t n_ranks = 0;
  /// Total iterations the run will execute (0 when unknown).
  std::size_t iterations = 0;
  /// Whole-run computation time per rank at the reference frequency —
  /// exactly what the paper's one-shot assigner sees.
  std::vector<Seconds> total_compute;
};

/// What a controller observes after iteration k finished executing.
struct IterationObservation {
  /// 0-based index of the iteration that just ran.
  std::size_t iteration = 0;
  /// Wall-clock computation time each rank spent in that iteration under
  /// the gears that were actually applied (what a runtime's per-process
  /// timers would measure; DVFS-stretched, not reference-frequency).
  std::vector<Seconds> observed_compute;
  /// The gears that were applied during that iteration. With fault
  /// injection these are the *effective* gears (a stuck actuator shows
  /// its pinned gear, not what the controller asked for).
  std::vector<Gear> applied_gears;
};

/// An online per-iteration DVFS policy: observe(iteration k) -> gears for
/// k+1. Implementations must be deterministic functions of their
/// construction parameters and the observation sequence.
class Controller {
public:
  virtual ~Controller();

  /// Stable policy name ("static", "dynamic_max", ...), used in labels,
  /// golden schedule files and the sweep grid axis.
  virtual std::string name() const = 0;

  /// Gears for iteration 0, given the whole-run profile. Called exactly
  /// once, before any observe().
  virtual std::vector<Gear> start(const ControllerSeed& seed) = 0;

  /// Observe iteration k and return the gears for iteration k+1. Called
  /// once per executed iteration except the last, in order.
  virtual std::vector<Gear> observe(const IterationObservation& obs) = 0;
};

/// Deterministic CSV rendering of named per-iteration gear schedules
/// (columns: controller, iteration, rank, frequency_ghz, voltage_v;
/// round-trip float precision). The golden fixtures under golden/ pin
/// this for the committed drift fixture so schedule regressions diff.
std::string schedules_to_csv(
    const std::vector<
        std::pair<std::string, std::vector<std::vector<Gear>>>>& schedules);

}  // namespace pals
