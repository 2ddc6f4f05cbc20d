// Platform (machine) model — the Dimemas-style network abstraction.
//
// Point-to-point transfers cost `latency + bytes/bandwidth`; a configurable
// number of shared buses limits concurrent transfers (0 = unlimited).
// Collectives use closed-form cost models parameterized by the same latency
// and bandwidth.
#pragma once

#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "trace/types.hpp"

namespace pals {

/// Implementation family a collective runs with. kDefault picks the
/// conventional algorithm per op (binomial tree for rooted ops and
/// allreduce, ring for allgather/reduce-scatter, pairwise for alltoall).
enum class CollectiveAlgo {
  kDefault,
  kTree,      ///< ceil(log2 P) stages of (latency + bytes/bw)
  kRing,      ///< P-1 stages of (latency + bytes/bw)
  kPairwise,  ///< P-1 exchanges (identical cost shape to ring)
};

std::string to_string(CollectiveAlgo algo);

/// Machine description used by the replay simulator. Defaults approximate
/// the paper's Myrinet cluster (O(10 us) latency, ~250 MB/s links).
struct PlatformModel {
  Seconds latency = 10e-6;          ///< per-message latency (s)
  double bandwidth = 250e6;         ///< link bandwidth (bytes/s)
  Bytes eager_threshold = 32768;    ///< <=: eager protocol; >: rendezvous
  std::int32_t buses = 0;           ///< shared buses; 0 = contention-free
  /// Half-duplex links per node and direction (the Dimemas node model):
  /// a transfer must queue for one output link at the source and one
  /// input link at the destination before taking a bus. 0 = unlimited
  /// (endpoint contention off). Stages are reserved sequentially, a
  /// conservative approximation of Dimemas's joint allocation.
  std::int32_t links_per_node = 0;
  /// Multiplier applied to every collective's closed-form cost; lets
  /// sensitivity studies model faster/slower collective implementations.
  double collective_scale = 1.0;
  /// Per-op algorithm overrides (ops not listed use kDefault).
  std::map<CollectiveOp, CollectiveAlgo> collective_algorithms;

  /// Pure transfer time of a message body (no latency term).
  Seconds transfer_time(Bytes bytes) const;
  /// latency + transfer_time.
  Seconds message_time(Bytes bytes) const;

  /// Throws pals::Error if any parameter is out of range.
  void validate() const;

  bool operator==(const PlatformModel&) const = default;
};

/// Closed-form collective duration once all ranks have entered.
/// `bytes` is the per-rank payload (matching CollectiveEvent::bytes).
Seconds collective_cost(const PlatformModel& platform, CollectiveOp op,
                        Rank n_ranks, Bytes bytes);

/// Tracks occupancy of the platform's shared buses. reserve() finds the
/// earliest start >= `earliest` at which a bus is free for `duration`
/// seconds, books it, and returns the transfer's start time.
///
/// Reservations must be requested in non-decreasing `earliest` order, which
/// the DES guarantees (requests are issued from timestamp-ordered events).
class BusAllocator {
public:
  /// `buses` == 0 means unlimited capacity (every reserve starts at
  /// `earliest`).
  explicit BusAllocator(std::int32_t buses);

  Seconds reserve(Seconds earliest, Seconds duration);

  std::int32_t buses() const { return buses_; }
  /// Total time transfers were delayed waiting for a free bus.
  Seconds contention_delay() const { return contention_delay_; }
  std::size_t reservations() const { return reservations_; }

private:
  std::int32_t buses_;
  // Min-heap of per-bus busy-until times.
  std::priority_queue<Seconds, std::vector<Seconds>, std::greater<>> free_at_;
  Seconds contention_delay_ = 0.0;
  std::size_t reservations_ = 0;
};

}  // namespace pals
