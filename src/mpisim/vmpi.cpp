#include "mpisim/vmpi.hpp"

#include "util/error.hpp"

namespace pals {

VirtualMpi::VirtualMpi(Trace& trace, Rank rank)
    : trace_(&trace), rank_(rank) {
  PALS_CHECK_MSG(rank >= 0 && rank < trace.n_ranks(),
                 "rank " << rank << " out of range");
}

void VirtualMpi::compute(Seconds duration, std::int32_t phase) {
  PALS_CHECK_MSG(duration >= 0.0, "negative compute duration");
  trace_->append(rank_, ComputeEvent{duration, phase});
}

void VirtualMpi::send(Rank peer, std::int32_t tag, Bytes bytes) {
  trace_->append(rank_, SendEvent{peer, tag, bytes});
}

void VirtualMpi::recv(Rank peer, std::int32_t tag, Bytes bytes) {
  trace_->append(rank_, RecvEvent{peer, tag, bytes});
}

VRequest VirtualMpi::isend(Rank peer, std::int32_t tag, Bytes bytes) {
  const RequestId id = next_request_++;
  trace_->append(rank_, IsendEvent{peer, tag, bytes, id});
  return VRequest{id};
}

VRequest VirtualMpi::irecv(Rank peer, std::int32_t tag, Bytes bytes) {
  const RequestId id = next_request_++;
  trace_->append(rank_, IrecvEvent{peer, tag, bytes, id});
  return VRequest{id};
}

void VirtualMpi::wait(VRequest request) {
  PALS_CHECK_MSG(request.valid(), "wait on invalid request");
  trace_->append(rank_, WaitEvent{request.id});
}

void VirtualMpi::waitall() { trace_->append(rank_, WaitAllEvent{}); }

void VirtualMpi::allreduce(Bytes bytes) {
  trace_->append(rank_, CollectiveEvent{CollectiveOp::kAllreduce, bytes, 0});
}

void VirtualMpi::allgather(Bytes bytes) {
  trace_->append(rank_, CollectiveEvent{CollectiveOp::kAllgather, bytes, 0});
}

void VirtualMpi::alltoall(Bytes bytes) {
  trace_->append(rank_, CollectiveEvent{CollectiveOp::kAlltoall, bytes, 0});
}

void VirtualMpi::iteration_begin(std::int32_t id) {
  trace_->append(rank_, MarkerEvent{MarkerKind::kIterationBegin, id});
}

void VirtualMpi::iteration_end(std::int32_t id) {
  trace_->append(rank_, MarkerEvent{MarkerKind::kIterationEnd, id});
}

void VirtualMpi::phase_begin(std::int32_t id) {
  trace_->append(rank_, MarkerEvent{MarkerKind::kPhaseBegin, id});
}

void VirtualMpi::phase_end(std::int32_t id) {
  trace_->append(rank_, MarkerEvent{MarkerKind::kPhaseEnd, id});
}

Trace run_spmd(Rank n_ranks, const RankProgram& program,
               const SpmdOptions& options) {
  PALS_CHECK_MSG(n_ranks > 0, "run_spmd requires at least one rank");
  PALS_CHECK_MSG(program != nullptr, "run_spmd requires a program");
  Trace trace(n_ranks);
  trace.set_name(options.name);
  for (Rank r = 0; r < n_ranks; ++r) {
    VirtualMpi mpi(trace, r);
    program(mpi);
  }
  trace.validate();
  return trace;
}

}  // namespace pals
