// Logical trace events: the per-rank program as seen by Dimemas.
//
// A logical trace abstracts a run of an MPI application into, per rank, a
// sequence of computation bursts (durations measured at the reference/top
// CPU frequency) and communication operations. Replay re-times this
// sequence on a platform model; under a DVFS schedule the replay stretches
// burst durations for the chosen frequencies.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "trace/types.hpp"

namespace pals {

/// CPU burst. `duration` is the time at the reference frequency; `phase`
/// labels which computation phase the burst belongs to (-1 = unphased).
struct ComputeEvent {
  Seconds duration = 0.0;
  std::int32_t phase = -1;

  bool operator==(const ComputeEvent&) const = default;
};

/// Blocking send (rendezvous/eager semantics decided by the platform model).
struct SendEvent {
  Rank peer = 0;
  std::int32_t tag = 0;
  Bytes bytes = 0;

  bool operator==(const SendEvent&) const = default;
};

/// Blocking receive.
struct RecvEvent {
  Rank peer = 0;
  std::int32_t tag = 0;
  Bytes bytes = 0;

  bool operator==(const RecvEvent&) const = default;
};

/// Non-blocking send; completion is observed by a WaitEvent on `request`.
struct IsendEvent {
  Rank peer = 0;
  std::int32_t tag = 0;
  Bytes bytes = 0;
  RequestId request = 0;

  bool operator==(const IsendEvent&) const = default;
};

/// Non-blocking receive.
struct IrecvEvent {
  Rank peer = 0;
  std::int32_t tag = 0;
  Bytes bytes = 0;
  RequestId request = 0;

  bool operator==(const IrecvEvent&) const = default;
};

/// Wait for one previously posted non-blocking request.
struct WaitEvent {
  RequestId request = 0;

  bool operator==(const WaitEvent&) const = default;
};

/// Wait for all outstanding non-blocking requests of the rank.
struct WaitAllEvent {
  bool operator==(const WaitAllEvent&) const = default;
};

/// World-communicator collective. `bytes` is the per-rank payload
/// contribution; `root` is meaningful for rooted collectives only.
struct CollectiveEvent {
  CollectiveOp op = CollectiveOp::kBarrier;
  Bytes bytes = 0;
  Rank root = 0;

  bool operator==(const CollectiveEvent&) const = default;
};

/// Structural marker (iteration/phase boundary); zero simulated cost.
struct MarkerEvent {
  MarkerKind kind = MarkerKind::kIterationBegin;
  std::int32_t id = 0;

  bool operator==(const MarkerEvent&) const = default;
};

using Event = std::variant<ComputeEvent, SendEvent, RecvEvent, IsendEvent,
                           IrecvEvent, WaitEvent, WaitAllEvent,
                           CollectiveEvent, MarkerEvent>;

/// One-line textual rendering (also the trace file record format).
std::string to_string(const Event& event);

}  // namespace pals
