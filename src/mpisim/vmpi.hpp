// Virtual MPI runtime — the "cluster" that produces traces.
//
// The paper traced real applications on a PowerPC/Myrinet cluster. Here,
// skeleton mini-apps written against this MPI-like API are executed in a
// deterministic SPMD harness that records a logical trace. Only structure
// and cost matter downstream (burst durations, message sizes, operation
// order), so rank programs run without exchanging payload data.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "trace/trace.hpp"

namespace pals {

/// Handle returned by non-blocking operations.
struct VRequest {
  RequestId id = -1;
  bool valid() const { return id >= 0; }
};

/// Per-rank tracing context: the part of the MPI subset the replay
/// simulator understands that the workloads use. A trace can hold every
/// collective of CollectiveOp; this API records the three the workloads
/// call. All byte counts are payload sizes.
class VirtualMpi {
public:
  VirtualMpi(Trace& trace, Rank rank);

  Rank rank() const { return rank_; }
  Rank size() const { return trace_->n_ranks(); }

  /// Record a computation burst of `duration` seconds (reference-frequency
  /// time). `phase` labels the computation phase (-1 = unphased).
  void compute(Seconds duration, std::int32_t phase = -1);

  void send(Rank peer, std::int32_t tag, Bytes bytes);
  void recv(Rank peer, std::int32_t tag, Bytes bytes);
  VRequest isend(Rank peer, std::int32_t tag, Bytes bytes);
  VRequest irecv(Rank peer, std::int32_t tag, Bytes bytes);
  void wait(VRequest request);
  void waitall();

  void allreduce(Bytes bytes);
  void allgather(Bytes bytes);
  void alltoall(Bytes bytes);

  void iteration_begin(std::int32_t id);
  void iteration_end(std::int32_t id);
  void phase_begin(std::int32_t id);
  void phase_end(std::int32_t id);

private:
  Trace* trace_;
  Rank rank_;
  RequestId next_request_ = 0;
};

/// An SPMD rank program.
using RankProgram = std::function<void(VirtualMpi&)>;

struct SpmdOptions {
  std::string name;
};

/// Run `program` once per rank (deterministically, rank 0 first) and
/// return the validated trace.
Trace run_spmd(Rank n_ranks, const RankProgram& program,
               const SpmdOptions& options = {});

}  // namespace pals
