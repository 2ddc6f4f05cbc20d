// Fault injector — the runtime face of a FaultPlan.
//
// An Injector compiles a plan into a pure perturbation oracle the replay
// simulator and power pipeline query while executing:
//
//   compute_factor(rank, t)        multiplier for a burst starting at t
//   transfer_factor(src, dst, t)   multiplier for a transfer entering at t
//   latency_jitter(rank, index)    extra latency of rank's index-th message
//   stuck_gear(rank)               DVFS pin for the rank, if any
//
// plus the host-side queries the sweep engine uses to inject scenario
// failures (scenario_transient_failures / scenario_crashed).
//
// Every answer is a pure function of (plan, seed, rank, index) — the
// injector holds no mutable state, so concurrent scenarios sharing one
// instance stay deterministic and results are byte-identical across
// --jobs counts. Counting of applied perturbations happens in the replay
// engine (per run, merged into obs counters), not here.
#pragma once

#include <cstdint>
#include <optional>

#include "fault/fault_plan.hpp"

namespace pals {
namespace fault {

class Injector {
 public:
  explicit Injector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  bool has_stuck_gears() const { return has_stuck_gears_; }

  /// Duration multiplier (>= 1) for a compute burst of `rank` beginning
  /// at simulated time `start`.
  double compute_factor(Rank rank, Seconds start) const;

  /// Transfer-time multiplier (>= 1) for a message src -> dst entering
  /// the network at simulated time `start`. link_degrade specs match when
  /// either endpoint is the degraded rank.
  double transfer_factor(Rank src, Rank dst, Seconds start) const;

  /// Extra latency (seconds, >= 0) for the `message_index`-th message
  /// posted by `rank` — a pure hash of (seed, rank, message_index), so
  /// replays are reproducible event by event.
  Seconds latency_jitter(Rank rank, std::uint64_t message_index) const;

  /// DVFS pin for `rank` under a gear_stuck fault; nullopt when free.
  /// With several matching specs the last one in the plan wins.
  std::optional<StuckGear> stuck_gear(Rank rank) const;

  /// Host-side: number of leading attempts of sweep cell `index` that
  /// must fail transiently (0 = healthy).
  int scenario_transient_failures(std::size_t index) const;
  /// Host-side: cell `index` fails permanently.
  bool scenario_crashed(std::size_t index) const;

 private:
  /// Seeded membership test for rate-based scenario_* specs: a pure hash
  /// of (seed, spec ordinal, index) against `rate`.
  bool rate_selects(const FaultSpec& spec, std::size_t ordinal,
                    std::size_t index) const;

  FaultPlan plan_;
  bool has_stuck_gears_ = false;
};

}  // namespace fault
}  // namespace pals
