// Fault-injection plans (pals::fault) — the declarative face of the
// fault subsystem.
//
// A FaultPlan is a seedable list of fault specifications parsed from a
// small config grammar. Entries are separated by ';' or newlines; '#'
// starts a comment. Each entry is either the plan-wide seed
//
//   seed=42
//
// or a fault spec `kind:key=value,key=value,...`:
//
//   link_degrade:rank=3,t=0.5,factor=4      # rank 3's links 4x slower from t=0.5s
//   node_slowdown:rank=1,t=0.0,factor=2     # rank 1 computes 2x slower
//   gear_stuck:rank=7,gear=min              # DVFS pinned at the set's lowest gear
//   msg_delay_jitter:rank=all,max=1e-4      # seeded latency jitter, all senders
//   scenario_flaky:index=2,failures=1       # sweep cell 2 fails once, then works
//   scenario_flaky:rate=0.25,failures=2     # seeded 25 % of cells fail twice
//   scenario_crash:index=5                  # sweep cell 5 fails permanently
//
// The first four kinds perturb the simulated machine (replay/pipeline);
// the scenario_* kinds are host-side faults that exercise the sweep
// engine's retry/quarantine machinery. Everything downstream of a plan is
// a pure function of (seed, rank, event/scenario index), so injected runs
// stay byte-identical across --jobs counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/types.hpp"

namespace pals {
namespace fault {

enum class FaultKind {
  kLinkDegrade,     ///< multiply transfer times touching a rank's links
  kNodeSlowdown,    ///< multiply a rank's compute-burst durations
  kGearStuck,       ///< pin a rank's DVFS gear at the set's min/max
  kMsgDelayJitter,  ///< seeded extra latency per posted message
  kScenarioFlaky,   ///< host-side: sweep cell fails transiently N times
  kScenarioCrash,   ///< host-side: sweep cell fails permanently
};

std::string to_string(FaultKind kind);

/// Which end of the gear set a gear_stuck fault pins a rank to.
enum class StuckGear { kMin, kMax };

std::string to_string(StuckGear gear);

/// One parsed fault. Fields not used by `kind` keep their defaults.
struct FaultSpec {
  FaultKind kind = FaultKind::kLinkDegrade;
  /// Affected rank; -1 means every rank ("rank=all").
  Rank rank = -1;
  /// Simulated time the fault becomes active ("t="); perturbations apply
  /// to bursts/transfers *starting* at or after this instant.
  Seconds start = 0.0;
  /// Multiplier for link_degrade / node_slowdown (>= 1: degradation).
  double factor = 1.0;
  /// Pinned end of the gear set for gear_stuck.
  StuckGear gear = StuckGear::kMin;
  /// Upper bound of the uniform latency jitter ("max=", seconds).
  Seconds max_jitter = 0.0;
  /// Canonical sweep-grid index for scenario_* faults ("index=");
  /// -1 selects cells by seeded `rate` instead.
  std::int64_t index = -1;
  /// Fraction of cells hit by a rate-based scenario_* fault ("rate=").
  double rate = 0.0;
  /// Transient failure count for scenario_flaky ("failures=").
  int failures = 1;

  /// Canonical spec text; parse(describe()) round-trips.
  std::string describe() const;

  bool operator==(const FaultSpec&) const = default;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }
  /// Any host-side scenario_* spec?
  bool perturbs_scenarios() const;

  /// "seed=42; link_degrade:rank=3,..." — parseable by parse().
  std::string describe() const;

  /// Parse a plan from text (entries split on ';' and newlines). Throws
  /// pals::Error naming the offending entry on any grammar violation.
  static FaultPlan parse(const std::string& text);
  static FaultPlan from_file(const std::string& path);
  /// from_file when `source` names a readable file, else parse(source).
  static FaultPlan from_file_or_inline(const std::string& source);

  /// Throws pals::Error on out-of-range fields (factor < 1, rate outside
  /// [0,1], negative start, ...).
  void validate() const;

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace fault
}  // namespace pals
