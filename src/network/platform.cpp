#include "network/platform.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pals {

Seconds PlatformModel::transfer_time(Bytes bytes) const {
  return static_cast<double>(bytes) / bandwidth;
}

Seconds PlatformModel::message_time(Bytes bytes) const {
  return latency + transfer_time(bytes);
}

void PlatformModel::validate() const {
  PALS_CHECK_MSG(latency >= 0.0, "latency must be non-negative");
  PALS_CHECK_MSG(bandwidth > 0.0, "bandwidth must be positive");
  PALS_CHECK_MSG(buses >= 0, "bus count must be non-negative");
  PALS_CHECK_MSG(links_per_node >= 0,
                 "links per node must be non-negative");
  PALS_CHECK_MSG(collective_scale > 0.0, "collective_scale must be positive");
}

std::string to_string(CollectiveAlgo algo) {
  switch (algo) {
    case CollectiveAlgo::kDefault: return "default";
    case CollectiveAlgo::kTree: return "tree";
    case CollectiveAlgo::kRing: return "ring";
    case CollectiveAlgo::kPairwise: return "pairwise";
  }
  throw Error("invalid CollectiveAlgo enum value");
}

Seconds collective_cost(const PlatformModel& platform, CollectiveOp op,
                        Rank n_ranks, Bytes bytes) {
  PALS_CHECK_MSG(n_ranks > 0, "collective over zero ranks");
  const double p = static_cast<double>(n_ranks);
  const double stages = n_ranks > 1 ? std::ceil(std::log2(p)) : 0.0;
  const Seconds msg = platform.message_time(bytes);

  CollectiveAlgo algo = CollectiveAlgo::kDefault;
  if (const auto it = platform.collective_algorithms.find(op);
      it != platform.collective_algorithms.end())
    algo = it->second;

  Seconds cost = 0.0;
  if (algo == CollectiveAlgo::kTree) {
    // Tree cost, with allreduce combining reduce + broadcast.
    cost = (op == CollectiveOp::kAllreduce ? 2.0 : 1.0) * stages *
           (op == CollectiveOp::kBarrier ? platform.latency : msg);
  } else if (algo == CollectiveAlgo::kRing ||
             algo == CollectiveAlgo::kPairwise) {
    cost = (p - 1.0) *
           (op == CollectiveOp::kBarrier ? platform.latency : msg);
  } else {
    switch (op) {
      case CollectiveOp::kBarrier:
        // Dissemination barrier: log2(P) latency-bound stages.
        cost = stages * platform.latency;
        break;
      case CollectiveOp::kBcast:
      case CollectiveOp::kReduce:
      case CollectiveOp::kScatter:
      case CollectiveOp::kGather:
        // Binomial tree.
        cost = stages * msg;
        break;
      case CollectiveOp::kAllreduce:
        // Reduce + broadcast along the same tree.
        cost = 2.0 * stages * msg;
        break;
      case CollectiveOp::kAllgather:
      case CollectiveOp::kReduceScatter:
        // Ring: P-1 steps of the per-rank payload.
        cost = (p - 1.0) * msg;
        break;
      case CollectiveOp::kAlltoall:
        // Pairwise exchange: P-1 rounds.
        cost = (p - 1.0) * msg;
        break;
    }
  }
  return cost * platform.collective_scale;
}

BusAllocator::BusAllocator(std::int32_t buses) : buses_(buses) {
  PALS_CHECK_MSG(buses >= 0, "bus count must be non-negative");
  for (std::int32_t i = 0; i < buses; ++i) free_at_.push(0.0);
}

Seconds BusAllocator::reserve(Seconds earliest, Seconds duration) {
  PALS_CHECK_MSG(duration >= 0.0, "negative transfer duration");
  ++reservations_;
  if (buses_ == 0) return earliest;  // contention-free machine
  const Seconds available = free_at_.top();
  free_at_.pop();
  const Seconds start = std::max(earliest, available);
  contention_delay_ += start - earliest;
  free_at_.push(start + duration);
  return start;
}

}  // namespace pals
