// Trace replay — a Dimemas-like MPI simulator.
//
// Replays a logical trace (per-rank computation bursts + MPI operations) on
// a PlatformModel and produces the total execution time plus a per-rank
// state timeline. Semantics:
//
//  * Computation bursts take their trace duration (the power pipeline
//    rescales durations for DVFS before replay).
//  * Point-to-point messages <= eager_threshold use the eager protocol:
//    the sender is busy for `latency`, the payload arrives at
//    bus_start + latency + bytes/bandwidth regardless of the receiver.
//  * Larger messages use rendezvous: the transfer starts only when both
//    sides have posted; a blocking sender stalls until transfer completion.
//  * Non-blocking operations complete in the background; Wait/Waitall block
//    until the referenced transfers finish.
//  * Collectives synchronize: every rank blocks until all have entered,
//    then all leave together after a closed-form cost (network/platform.hpp).
//  * A configurable number of shared buses serializes concurrent transfers.
//
// Engine: the replay validates the trace, then compiles it in one pass —
// each (src, dst, tag) triple gets a dense channel id, each open request
// a rank-local slot (OpenRequests, trace/open_requests.hpp), and each
// send, recv and wait event its ids. Pending sends and receives wait in
// per-channel FIFOs (MPI non-overtaking order), request state lives in
// per-slot arrays, and a typed (time, seq, rank) event heap (simcore)
// wakes one rank at a time, so the hot loop only indexes vectors.
//
// Deadlocks (e.g. a recv whose send never happens) are detected and
// reported with the blocked ranks plus the wait-for cycle diagnosed by
// the static linter (lint/lint.hpp). Running lint_trace() before replay
// — or setting PipelineConfig::lint — catches them without simulating.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/injector.hpp"
#include "network/platform.hpp"
#include "trace/timeline.hpp"
#include "trace/trace.hpp"

namespace pals {

struct ReplayConfig {
  PlatformModel platform;
  /// Relative CPU speed per rank (Dimemas's CPU-ratio): a compute burst of
  /// duration d on rank r takes d / relative_speed[r]. Empty = homogeneous
  /// machine (all 1.0). Models heterogeneous clusters; DVFS rescaling uses
  /// trace transforms instead (the frequency choice is per-application).
  std::vector<double> relative_speed;

  /// Optional fault injector (not owned; must outlive the replay). When
  /// set, compute bursts, transfer durations and message latencies are
  /// perturbed by pure functions of (plan seed, rank, event index), so
  /// results stay byte-identical across hosts and thread counts.
  const fault::Injector* faults = nullptr;

  /// Abort the simulation with a structured pals::Error once more than
  /// this many DES events have executed (0 = unlimited). The fault-
  /// tolerant sweep classifies the error as a timeout; because the limit
  /// counts simulated work, hitting it is deterministic.
  std::size_t max_simulated_events = 0;

  /// Host-side wall-clock watchdog (0 = disabled): abort the replay with
  /// a structured "wall-clock watchdog expired" error — classified
  /// fault::ErrorClass::kTimeout — once the run has consumed this much
  /// *host* time. The sweep engine threads its --cell-timeout budget
  /// through here so a wedged cell is quarantined instead of hanging the
  /// whole sweep. Unlike max_simulated_events this depends on host speed,
  /// so it must stay off in determinism comparisons.
  double max_wall_seconds = 0.0;

  void validate() const;
};

/// One completed point-to-point message (for Paraver export and traffic
/// analysis).
struct MessageRecord {
  Rank src = 0;
  Rank dst = 0;
  std::int32_t tag = 0;
  Bytes bytes = 0;
  Seconds send_time = 0.0;  ///< when the sender posted the operation
  Seconds recv_time = 0.0;  ///< when the payload was delivered/matched

  bool operator==(const MessageRecord&) const = default;
};

/// One completed collective operation.
struct CollectiveRecord {
  CollectiveOp op = CollectiveOp::kBarrier;
  Bytes bytes = 0;  ///< largest per-rank contribution
  Rank root = 0;
  Seconds completion = 0.0;
  /// Per-rank entry times, in arrival order: {rank, time}.
  std::vector<std::pair<Rank, Seconds>> arrivals;

  bool operator==(const CollectiveRecord&) const = default;
};

struct ReplayResult {
  /// Total simulated execution time (end of the last rank).
  Seconds makespan = 0.0;
  /// Gap-free per-rank state intervals, padded with idle to `makespan`.
  Timeline timeline;

  /// Every matched point-to-point message, in match order.
  std::vector<MessageRecord> messages;
  /// Every collective, in program order.
  std::vector<CollectiveRecord> collectives;

  /// Per-rank aggregates (seconds).
  std::vector<Seconds> compute_time;
  std::vector<Seconds> communication_time;  ///< everything except compute

  /// Traffic statistics.
  std::size_t point_to_point_messages = 0;
  Bytes point_to_point_bytes = 0;
  /// Protocol split of the posted sends (eager + rendezvous =
  /// point_to_point_messages).
  std::size_t eager_messages = 0;
  std::size_t rendezvous_messages = 0;
  std::size_t collective_operations = 0;
  Seconds bus_contention_delay = 0.0;
  /// Time transfers queued for per-node input/output links.
  Seconds link_contention_delay = 0.0;

  std::size_t simulated_events = 0;
  /// Event-queue high-water mark of the DES engine.
  std::size_t sim_queue_peak = 0;

  /// Fault-injection accounting (all 0 when ReplayConfig::faults is null).
  std::size_t fault_compute_perturbations = 0;   ///< slowed compute bursts
  std::size_t fault_transfer_perturbations = 0;  ///< degraded transfers
  std::size_t fault_jitter_injections = 0;       ///< jittered message posts
};

/// Simulate `trace` on the platform. The trace must pass validate().
/// Throws pals::Error on deadlock.
ReplayResult replay(const Trace& trace, const ReplayConfig& config);

}  // namespace pals
