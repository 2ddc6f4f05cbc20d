#include "trace/trace.hpp"

#include <algorithm>
#include <set>

#include "trace/open_requests.hpp"
#include "util/error.hpp"

namespace pals {

Trace::Trace(Rank n_ranks) {
  PALS_CHECK_MSG(n_ranks > 0, "trace needs at least one rank");
  streams_.resize(static_cast<std::size_t>(n_ranks));
}

std::span<const Event> Trace::events(Rank rank) const {
  PALS_CHECK_MSG(rank >= 0 && rank < n_ranks(), "rank " << rank
                                                        << " out of range");
  return streams_[static_cast<std::size_t>(rank)];
}

std::vector<Event>& Trace::mutable_events(Rank rank) {
  PALS_CHECK_MSG(rank >= 0 && rank < n_ranks(), "rank " << rank
                                                        << " out of range");
  return streams_[static_cast<std::size_t>(rank)];
}

void Trace::append(Rank rank, Event event) {
  mutable_events(rank).push_back(std::move(event));
}

std::size_t Trace::total_events() const {
  std::size_t n = 0;
  for (const auto& s : streams_) n += s.size();
  return n;
}

Seconds Trace::computation_time(Rank rank) const {
  Seconds total = 0.0;
  for (const Event& e : events(rank))
    if (const auto* c = std::get_if<ComputeEvent>(&e)) total += c->duration;
  return total;
}

Seconds Trace::computation_time(Rank rank, std::int32_t phase) const {
  Seconds total = 0.0;
  for (const Event& e : events(rank))
    if (const auto* c = std::get_if<ComputeEvent>(&e))
      if (c->phase == phase) total += c->duration;
  return total;
}

std::vector<Seconds> Trace::computation_times() const {
  std::vector<Seconds> out;
  out.reserve(streams_.size());
  for (Rank r = 0; r < n_ranks(); ++r) out.push_back(computation_time(r));
  return out;
}

std::vector<std::int32_t> Trace::phases() const {
  std::set<std::int32_t> found;
  for (const auto& stream : streams_)
    for (const Event& e : stream)
      if (const auto* c = std::get_if<ComputeEvent>(&e))
        if (c->phase >= 0) found.insert(c->phase);
  return {found.begin(), found.end()};
}

std::size_t Trace::iteration_count() const {
  if (streams_.empty()) return 0;
  std::size_t count = 0;
  for (const Event& e : streams_.front())
    if (const auto* m = std::get_if<MarkerEvent>(&e))
      if (m->kind == MarkerKind::kIterationEnd) ++count;
  return count;
}

void Trace::validate() const {
  PALS_CHECK_MSG(!streams_.empty(), "empty trace");
  // Per-rank checks: peers, request discipline. A rank that passes leaves
  // no request open, so the next rank reuses the table.
  OpenRequests open_requests;
  for (Rank r = 0; r < n_ranks(); ++r) {
    std::size_t index = 0;
    for (const Event& e : events(r)) {
      const auto check_peer = [&](Rank peer) {
        PALS_CHECK_MSG(peer >= 0 && peer < n_ranks(),
                       "rank " << r << " event " << index << ": peer " << peer
                               << " out of range");
        PALS_CHECK_MSG(peer != r, "rank " << r << " event " << index
                                          << ": self-messaging not allowed");
      };
      if (const auto* s = std::get_if<SendEvent>(&e)) {
        check_peer(s->peer);
      } else if (const auto* v = std::get_if<RecvEvent>(&e)) {
        check_peer(v->peer);
      } else if (const auto* is = std::get_if<IsendEvent>(&e)) {
        check_peer(is->peer);
        PALS_CHECK_MSG(open_requests.open(is->request) >= 0,
                       "rank " << r << " event " << index << ": request "
                               << is->request << " already open");
      } else if (const auto* ir = std::get_if<IrecvEvent>(&e)) {
        check_peer(ir->peer);
        PALS_CHECK_MSG(open_requests.open(ir->request) >= 0,
                       "rank " << r << " event " << index << ": request "
                               << ir->request << " already open");
      } else if (const auto* w = std::get_if<WaitEvent>(&e)) {
        PALS_CHECK_MSG(open_requests.close(w->request) >= 0,
                       "rank " << r << " event " << index
                               << ": wait on unknown request " << w->request);
      } else if (std::holds_alternative<WaitAllEvent>(e)) {
        open_requests.close_all();
      } else if (const auto* c = std::get_if<ComputeEvent>(&e)) {
        PALS_CHECK_MSG(c->duration >= 0.0,
                       "rank " << r << " event " << index
                               << ": negative compute duration");
      } else if (const auto* coll = std::get_if<CollectiveEvent>(&e)) {
        PALS_CHECK_MSG(coll->root >= 0 && coll->root < n_ranks(),
                       "rank " << r << " event " << index
                               << ": collective root out of range");
      }
      ++index;
    }
    PALS_CHECK_MSG(open_requests.size() == 0,
                   "rank " << r << ": " << open_requests.size()
                           << " request(s) never waited on");
  }
  // Cross-rank check: identical collective sequences.
  std::vector<CollectiveEvent> reference;
  for (const Event& e : events(0))
    if (const auto* c = std::get_if<CollectiveEvent>(&e))
      reference.push_back(*c);
  for (Rank r = 1; r < n_ranks(); ++r) {
    std::size_t k = 0;
    for (const Event& e : events(r)) {
      if (const auto* c = std::get_if<CollectiveEvent>(&e)) {
        PALS_CHECK_MSG(k < reference.size(),
                       "rank " << r << " issues more collectives than rank 0");
        PALS_CHECK_MSG(c->op == reference[k].op && c->root == reference[k].root,
                       "rank " << r << " collective " << k
                               << " mismatches rank 0 ("
                               << to_string(c->op) << " vs "
                               << to_string(reference[k].op) << ")");
        ++k;
      }
    }
    PALS_CHECK_MSG(k == reference.size(),
                   "rank " << r << " issues fewer collectives ("
                           << k << ") than rank 0 (" << reference.size()
                           << ")");
  }
}

TraceBuilder& TraceBuilder::compute(Seconds duration, std::int32_t phase) {
  trace_->append(rank_, ComputeEvent{duration, phase});
  return *this;
}

TraceBuilder& TraceBuilder::send(Rank peer, std::int32_t tag, Bytes bytes) {
  trace_->append(rank_, SendEvent{peer, tag, bytes});
  return *this;
}

TraceBuilder& TraceBuilder::recv(Rank peer, std::int32_t tag, Bytes bytes) {
  trace_->append(rank_, RecvEvent{peer, tag, bytes});
  return *this;
}

TraceBuilder& TraceBuilder::isend(Rank peer, std::int32_t tag, Bytes bytes,
                                  RequestId req) {
  trace_->append(rank_, IsendEvent{peer, tag, bytes, req});
  return *this;
}

TraceBuilder& TraceBuilder::irecv(Rank peer, std::int32_t tag, Bytes bytes,
                                  RequestId req) {
  trace_->append(rank_, IrecvEvent{peer, tag, bytes, req});
  return *this;
}

TraceBuilder& TraceBuilder::wait(RequestId req) {
  trace_->append(rank_, WaitEvent{req});
  return *this;
}

TraceBuilder& TraceBuilder::waitall() {
  trace_->append(rank_, WaitAllEvent{});
  return *this;
}

TraceBuilder& TraceBuilder::collective(CollectiveOp op, Bytes bytes,
                                       Rank root) {
  trace_->append(rank_, CollectiveEvent{op, bytes, root});
  return *this;
}

TraceBuilder& TraceBuilder::marker(MarkerKind kind, std::int32_t id) {
  trace_->append(rank_, MarkerEvent{kind, id});
  return *this;
}

}  // namespace pals
