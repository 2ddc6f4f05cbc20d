// The built-in online DVFS controllers (power/controller.hpp) and their
// configuration.
//
// Six policies, from degenerate to fully dynamic:
//  * static       — adapter wrapping the one-shot assigner (MAX / AVG /
//                   kEnergyOptimalMax per AlgorithmConfig::algorithm): it
//                   solves once on the whole-run profile and never moves.
//                   Exists so the controller machinery can reproduce the
//                   paper's algorithms gear-for-gear (property-tested).
//  * dynamic_max  — re-solves MAX every iteration on the previous
//                   iteration's load vector (reconstructed from the
//                   observed, DVFS-stretched times via the β time model).
//  * dynamic_avg  — the same re-solve with AVG.
//  * slack        — proportional slack tracker with hysteresis and an
//                   explicit gear-switch cost model: a rank re-targets the
//                   observed critical path when its relative slack leaves
//                   the [threshold·hysteresis, threshold] dead band, and a
//                   down-shift only happens when the predicted per-
//                   iteration energy saving exceeds the transition cost.
//  * ewma         — exponentially-weighted moving average of the load
//                   vector feeding the re-solver (scenario algorithm):
//                   smooths noisy iterations instead of chasing them.
//  * jitter       — Jitter-style gear stepper (Kappiah et al., SC'05, the
//                   paper's ref. [18]; the paper's §2 calls MAX "a static
//                   version of this approach"): every rank starts on the
//                   top gear, steps one gear down while its slack exceeds
//                   5% and the slower gear still fits the critical path,
//                   and jumps back to the top gear when its slack falls
//                   below 2.5%. Discrete gear sets only.
//
// When to use which: compute drift_index (analysis/iteration_stats.hpp).
// ~0 means static is already optimal (and dynamic_max must match it —
// property-tested); large values mean the imbalance pattern moves and
// only the dynamic policies track it. See docs/controllers.md.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "power/controller.hpp"
#include "power/power_model.hpp"

namespace pals {

enum class ControllerKind {
  kStatic,
  kDynamicMax,
  kDynamicAvg,
  kSlack,
  kEwma,
  kJitter,
};

std::string to_string(ControllerKind kind);

/// Parse a controller name ("static", "dynamic_max", "dynamic_avg",
/// "slack", "ewma", "jitter"); throws pals::Error listing the options.
ControllerKind controller_by_name(const std::string& name);

/// All controller names, in canonical order (for CLIs and docs).
std::vector<std::string> controller_names();

/// Controller selection + knobs, carried by PipelineConfig and the sweep
/// grid. Everything here is result-affecting and therefore part of the
/// sweep config hash (resumed sweeps refuse a changed controller setup).
struct ControllerOptions {
  ControllerKind kind = ControllerKind::kStatic;

  // --- DVFS transition cost model --------------------------------------
  /// Wall-clock stall a rank pays at the start of an iteration in which
  /// its gear changed (voltage regulators need O(10–100 µs) per switch;
  /// 0 = free switching, the paper's implicit assumption).
  Seconds transition_latency = 0.0;
  /// Energy charged per gear switch (energy-units; the same normalized
  /// unit the power model integrates in).
  double transition_energy = 0.0;

  // --- slack controller -------------------------------------------------
  /// Minimum relative slack ((Tmax − T)/Tmax) before a rank re-targets
  /// the critical path downwards; also the safety margin kept below the
  /// critical path by the re-target (down-shifts aim at
  /// (1 − threshold)·Tmax, not Tmax, so drifting loads have headroom).
  double slack_threshold = 0.15;
  /// Dead-band factor: a rank jumps back to nominal speed only when its
  /// slack falls below slack_threshold · hysteresis. Must lie in [0, 1).
  /// The jump fires while the rank still has that much slack, so a
  /// per-iteration load rise below threshold·hysteresis·Tmax never
  /// stretches the critical path.
  double hysteresis = 0.8;

  // --- ewma controller --------------------------------------------------
  /// Smoothing weight of the newest observation. 1.0 degenerates to the
  /// plain re-solver; small values react slowly.
  double ewma_alpha = 0.5;

  void validate() const;
};

/// Build a controller. `algorithm` supplies the gear set, β, snapping and
/// (for static/ewma) which one-shot algorithm to solve; `power` supplies
/// the time/power models used to reconstruct loads and price switches.
/// Throws when jitter is given a continuous or single-gear set.
std::unique_ptr<Controller> make_controller(const ControllerOptions& options,
                                            const AlgorithmConfig& algorithm,
                                            const PowerModelConfig& power);

}  // namespace pals
