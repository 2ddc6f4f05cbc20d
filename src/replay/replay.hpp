// Trace replay — a Dimemas-like MPI simulator.
//
// Replays a logical trace (per-rank computation bursts + MPI operations) on
// a PlatformModel and produces the total execution time plus a per-rank
// state timeline. Semantics:
//
//  * Computation bursts take their trace duration, stretched by the DVFS
//    schedule's time-scale factor when the replay is given one
//    (ReplayScale; the power pipeline fills it from a GearSchedule).
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
// Engine: a ReplayProgram is compiled once per trace — the trace is
// validated, each (src, dst, tag) triple gets a dense channel id, each
// open request a rank-local slot (OpenRequests, trace/open_requests.hpp),
// and each send, recv and wait event its ids. Every replay of that trace
// runs from the program: the baseline and each scaled replay, because a
// DVFS schedule never changes a trace's structure. A scaled replay reads
// the unscaled trace and applies the schedule as it reads each burst: the
// burst's duration times its (segment, rank) factor, and each
// iteration's transition stall run as an unphased burst right after the
// iteration-begin marker. Pending sends and receives wait in per-channel
// FIFOs (MPI non-overtaking order), request state lives in per-slot
// arrays, and a typed (time, seq, rank) event heap (simcore) wakes one
// rank at a time, so the hot loop only indexes vectors. Each rank's state
// intervals stream through one in-pass merger: Timeline::append's checks
// and snapping, touching intervals of one state, phase and iteration
// coalesced into the open interval, the idle pad to the makespan at the
// end, and per-rank compute, communication and (given the schedule's
// power rates) energy sums over the merged intervals. A full replay
// (ReplayOutput::kFull) also keeps those merged intervals as its
// Timeline, every matched message and every collective; a summary replay
// (kSummary), what a sweep cell or served query runs, keeps only the
// sums and counts.
//
// Deadlocks (e.g. a recv whose send never happens) are detected and
// reported with the blocked ranks plus the wait-for cycle diagnosed by
// the static linter (lint/lint.hpp). Running lint_trace() before replay
// — or setting PipelineConfig::lint — catches them without simulating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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
  /// machine (all 1.0). Models heterogeneous clusters; DVFS stretching
  /// comes from a ReplayScale instead (the frequency choice is
  /// per-application).
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

/// What a replay hands back besides its sums and counts.
enum class ReplayOutput {
  kFull,     ///< also the timeline, the message log and the collectives
  kSummary,  ///< leaves ReplayResult's timeline, messages and collectives
             ///< empty
};

struct ReplayResult {
  /// Total simulated execution time (end of the last rank).
  Seconds makespan = 0.0;
  /// Gap-free, merged per-rank state intervals, padded with idle to
  /// `makespan`. Empty after a summary replay.
  Timeline timeline;

  /// Every matched point-to-point message, in match order. Empty after a
  /// summary replay.
  std::vector<MessageRecord> messages;
  /// Every collective, in program order. Empty after a summary replay.
  std::vector<CollectiveRecord> collectives;

  /// Per-rank aggregates (seconds), summed over the merged intervals in
  /// lane order.
  std::vector<Seconds> compute_time;
  std::vector<Seconds> communication_time;  ///< everything except compute

  /// CPU energy of the run under the schedule's power rates
  /// (ReplayScale::power): each merged interval's duration times its
  /// rate, summed per rank in lane order, then over ranks in rank order
  /// — bit-identical to GearSchedule::energy over `timeline` without the
  /// transition energy. 0 when the replay had no rates.
  double energy = 0.0;

  /// Traffic statistics. messages_matched counts the matched
  /// point-to-point messages (messages.size() after a full replay).
  std::size_t messages_matched = 0;
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

/// The ids the compile pass gives a p2p or Wait event: its (src, dst, tag)
/// matching channel (-1 for a Wait) and its rank-local request slot (-1
/// when blocking).
struct ReplayOpRef {
  std::int32_t channel = -1;
  std::int32_t slot = -1;
};

/// A validated trace compiled for replay. It holds only structure — no
/// durations — so one program serves the baseline and every scaled
/// replay of its trace. The per-rank event counts are a cheap
/// fingerprint: replay() rejects a trace whose shape differs.
class ReplayProgram {
public:
  ReplayProgram() = default;
  /// Validate `trace` (Trace::validate, same errors) and compile it.
  explicit ReplayProgram(const Trace& trace);

  Rank n_ranks() const { return static_cast<Rank>(events_.size()); }
  /// Iterations on rank 0, as Trace::iteration_count counts them.
  std::size_t iterations() const { return iterations_; }
  /// Whether `trace` has the shape this program was compiled from.
  bool matches(const Trace& trace) const;
  /// Approximate bytes of the program's tables, at sizeof() cost (the
  /// object itself not included).
  std::size_t approx_bytes() const;

  /// Every rank's p2p/Wait refs in stream order, rank by rank.
  const std::vector<ReplayOpRef>& ops() const { return ops_; }
  /// Index into ops() of rank r's first ref.
  std::size_t first_op(Rank r) const {
    return first_op_[static_cast<std::size_t>(r)];
  }
  /// Request slots rank r needs (its peak number of open requests).
  std::int32_t slots(Rank r) const {
    return slots_[static_cast<std::size_t>(r)];
  }
  /// Number of distinct (src, dst, tag) channels.
  std::int32_t channels() const { return channels_; }
  /// Blocking and non-blocking sends of the whole trace.
  std::size_t sends() const { return sends_; }

private:
  std::vector<std::size_t> events_;  ///< per-rank event counts
  std::vector<ReplayOpRef> ops_;
  std::vector<std::size_t> first_op_;
  std::vector<std::int32_t> slots_;
  std::int32_t channels_ = 0;
  std::size_t sends_ = 0;
  std::size_t iterations_ = 0;
};

/// A DVFS schedule as the scaled replay applies it: plain numbers, no
/// gears (GearSchedule::replay_scale fills it). Non-owning; the spans
/// must outlive the replay. A compute burst's duration is multiplied by
/// the factor of its segment and rank before the relative CPU speed and
/// faults apply; bursts no row covers take the fallback factor. With
/// power rates the replay also integrates the run's CPU energy.
struct ReplayScale {
  enum class Segment {
    kRun,        ///< every burst takes the fallback factor
    kPhase,      ///< row s covers bursts labelled phases[s]
    kIteration,  ///< row i covers bursts inside iteration i
  };
  Segment segment = Segment::kRun;
  /// kPhase: the phase label of each row, ascending.
  std::span<const std::int32_t> phases;
  /// factors[row * n_ranks + rank]; empty for kRun.
  std::span<const double> factors;
  /// fallback[rank].
  std::span<const double> fallback;
  /// stalls[iteration * n_ranks + rank]: wall-clock seconds run as an
  /// unphased, unscaled burst right after that iteration's begin marker
  /// (kIteration only; empty when nothing stalls).
  std::span<const Seconds> stalls;
  /// CPU power (energy-units/s) of every row's gear and then the
  /// fallback's, per rank, while not computing and while computing:
  /// power[(row * n_ranks + rank) * 2 + computing], the fallback being
  /// row factors.size() / n_ranks. A merged interval's row follows its
  /// phase label and iteration label (-1 outside every iteration), as
  /// GearSchedule::gear chooses it, so each burst is priced at the row
  /// that stretched it. Empty: the replay integrates no energy.
  std::span<const double> power;
};

/// Simulate `trace` on the platform. Validates and compiles the trace
/// (ReplayProgram), then replays it. Throws pals::Error on an invalid
/// trace or config and on deadlock.
ReplayResult replay(const Trace& trace, const ReplayConfig& config);

/// Replay `trace` from its compiled `program`, stretched by `scale` when
/// given, keeping what `output` asks for. Throws when the program was
/// compiled from a trace of another shape, or when a scale factor is not
/// finite and positive, a stall or power rate is negative or the power
/// table does not fit the rows.
ReplayResult replay(const Trace& trace, const ReplayProgram& program,
                    const ReplayConfig& config,
                    const ReplayScale* scale = nullptr,
                    ReplayOutput output = ReplayOutput::kFull);

}  // namespace pals
