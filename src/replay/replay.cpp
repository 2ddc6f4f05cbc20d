#include "replay/replay.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "simcore/engine.hpp"
#include "trace/open_requests.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

struct PendingSend {
  Seconds post_time = 0.0;
  Bytes bytes = 0;
  bool eager = false;
  bool blocking = false;
  std::int32_t slot = -1;   ///< valid when !blocking
  Seconds arrival = 0.0;    ///< valid when eager (computed at post time)
  Seconds jitter = 0.0;     ///< injected latency (sender-side, fault plan)
};

struct PendingRecv {
  Seconds post_time = 0.0;
  bool blocking = false;
  std::int32_t slot = -1;   ///< valid when !blocking
};

/// One FIFO of pending T per matching channel. MPI ordering (non-
/// overtaking per sender/receiver/tag triple) is preserved by popping at
/// the head. All queues link through one pooled node vector with a free
/// list, so memory follows the pending high-water mark, not the message
/// count, and a channel costs two ints.
template <typename T>
class ChannelQueues {
public:
  explicit ChannelQueues(std::size_t channels = 0) : ends_(channels) {}

  bool empty(std::int32_t channel) const { return end(channel).head < 0; }
  const T& front(std::int32_t channel) const {
    return nodes_[static_cast<std::size_t>(end(channel).head)].value;
  }
  void pop(std::int32_t channel) {
    Ends& q = end(channel);
    Node& node = nodes_[static_cast<std::size_t>(q.head)];
    const std::int32_t freed = q.head;
    q.head = node.next;
    if (q.head < 0) q.tail = -1;
    node.next = free_;
    free_ = freed;
  }
  void push(std::int32_t channel, const T& value) {
    std::int32_t index = free_;
    if (index >= 0) {
      free_ = nodes_[static_cast<std::size_t>(index)].next;
      nodes_[static_cast<std::size_t>(index)] = Node{value, -1};
    } else {
      index = static_cast<std::int32_t>(nodes_.size());
      nodes_.push_back(Node{value, -1});
    }
    Ends& q = end(channel);
    if (q.tail >= 0)
      nodes_[static_cast<std::size_t>(q.tail)].next = index;
    else
      q.head = index;
    q.tail = index;
  }

private:
  struct Node {
    T value;
    std::int32_t next;
  };
  struct Ends {
    std::int32_t head = -1;
    std::int32_t tail = -1;
  };
  Ends& end(std::int32_t channel) {
    return ends_[static_cast<std::size_t>(channel)];
  }
  const Ends& end(std::int32_t channel) const {
    return ends_[static_cast<std::size_t>(channel)];
  }

  std::vector<Node> nodes_;
  std::vector<Ends> ends_;
  std::int32_t free_ = -1;
};

/// Dense ids for (src, dst, tag) matching channels, handed out 0, 1, 2, ...
/// in first-seen order from one open-addressing table (linear probing,
/// load <= 1/2). Only the compile pass (ReplayProgram) looks channels up;
/// the replay loop indexes by the ids.
class ChannelIds {
public:
  /// The id of channel (src, dst, tag); a new channel gets size().
  std::int32_t id(Rank src, Rank dst, std::int32_t tag) {
    if (2 * (static_cast<std::size_t>(size_) + 1) > entries_.size()) grow();
    const std::size_t mask = entries_.size() - 1;
    for (std::size_t i = home(src, dst, tag) & mask;; i = (i + 1) & mask) {
      Entry& e = entries_[i];
      if (e.id < 0) {
        e = Entry{src, dst, tag, size_};
        return size_++;
      }
      if (e.src == src && e.dst == dst && e.tag == tag) return e.id;
    }
  }

  /// Number of distinct channels seen.
  std::int32_t size() const { return size_; }

private:
  struct Entry {
    Rank src = 0;
    Rank dst = 0;
    std::int32_t tag = 0;
    std::int32_t id = -1;  ///< -1: empty
  };

  static std::size_t home(Rank src, Rank dst, std::int32_t tag) {
    constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
    std::uint64_t h = static_cast<std::uint32_t>(src);
    h = (h * kMul) ^ static_cast<std::uint32_t>(dst);
    h = (h * kMul) ^ static_cast<std::uint32_t>(tag);
    h *= kMul;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  void grow() {
    std::vector<Entry> old(entries_.empty() ? 64 : 2 * entries_.size());
    old.swap(entries_);
    const std::size_t mask = entries_.size() - 1;
    for (const Entry& e : old) {
      if (e.id < 0) continue;
      std::size_t i = home(e.src, e.dst, e.tag) & mask;
      while (entries_[i].id >= 0) i = (i + 1) & mask;
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;
  std::int32_t size_ = 0;
};

/// Lifecycle of a rank's request slot. A slot holds one request from its
/// post to the Wait/Waitall that consumes it, then the compile pass may
/// hand it to a later post.
enum class SlotState : std::uint8_t {
  kFree,  ///< not posted, or waited on
  kOpen,  ///< posted, completion unknown
  kDone,  ///< completed, not yet waited on
};

/// Why a rank is currently not runnable.
enum class BlockReason { kNone, kSend, kRecv, kWait, kWaitAll, kCollective };

/// The collective gathering arrivals. Every rank leaves collective k
/// before any enters k + 1, so there is only ever one.
struct CollectiveState {
  CollectiveOp op = CollectiveOp::kBarrier;
  Bytes max_bytes = 0;
  Rank root = 0;
  std::vector<std::pair<Rank, Seconds>> arrivals;
};

/// One rank's lane as the replay streams it: the open merged interval
/// and the sums over the merged intervals already closed.
struct Lane {
  StateInterval open;
  bool started = false;  ///< an interval of non-zero width was admitted
  Seconds compute = 0.0;
  Seconds communication = 0.0;
  double energy = 0.0;
};

class ReplayEngine {
public:
  ReplayEngine(const Trace& trace, const ReplayProgram& program,
               const ReplayConfig& config, const ReplayScale* scale,
               ReplayOutput output)
      : trace_(trace),
        config_(config),
        scale_(scale),
        full_(output == ReplayOutput::kFull),
        n_(trace.n_ranks()),
        bus_(config.platform.buses),
        ranks_(static_cast<std::size_t>(trace.n_ranks())),
        lanes_(static_cast<std::size_t>(trace.n_ranks())),
        ops_(program.ops()),
        sends_(static_cast<std::size_t>(program.channels())),
        recvs_(static_cast<std::size_t>(program.channels())) {
    if (scale != nullptr) {
      scale_rows_ = scale->factors.size() / static_cast<std::size_t>(n_);
      integrate_energy_ = !scale->power.empty();
    }
    engine_.set_event_limit(config.max_simulated_events);
    engine_.set_wall_limit(config.max_wall_seconds);
    out_links_.reserve(static_cast<std::size_t>(n_));
    in_links_.reserve(static_cast<std::size_t>(n_));
    for (Rank r = 0; r < n_; ++r) {
      out_links_.emplace_back(config.platform.links_per_node);
      in_links_.emplace_back(config.platform.links_per_node);
    }
    if (full_) {
      timeline_ = Timeline(n_);
      messages_.reserve(program.sends());  // one record per matched send
    }
    for (Rank r = 0; r < n_; ++r) {
      RankCtx& c = ctx(r);
      c.stream = trace.events(r);
      c.next_op = program.first_op(r);
      const auto slots = static_cast<std::size_t>(program.slots(r));
      c.slot_ids.assign(slots, 0);
      c.slot_state.assign(slots, SlotState::kFree);
      c.slot_time.assign(slots, 0.0);
      c.done_position.assign(slots, -1);
    }
  }

  ReplayResult run() {
    for (Rank r = 0; r < n_; ++r) engine_.schedule_at(0.0, r);
    engine_.run([this](Rank r) { advance(r); });
    check_completion();

    ReplayResult result;
    result.makespan = close_lanes();
    result.compute_time.reserve(static_cast<std::size_t>(n_));
    result.communication_time.reserve(static_cast<std::size_t>(n_));
    for (const Lane& lane : lanes_) {
      result.compute_time.push_back(lane.compute);
      // The idle pad counts as communication time, consistently with the
      // paper ("waiting for the other processes").
      result.communication_time.push_back(lane.communication);
      result.energy += lane.energy;
    }
    result.messages_matched = messages_matched_;
    result.point_to_point_messages = p2p_messages_;
    result.point_to_point_bytes = p2p_bytes_;
    result.eager_messages = eager_messages_;
    result.rendezvous_messages = rendezvous_messages_;
    result.collective_operations = collective_operations_;
    result.bus_contention_delay = bus_.contention_delay();
    for (const BusAllocator& link : out_links_)
      result.link_contention_delay += link.contention_delay();
    for (const BusAllocator& link : in_links_)
      result.link_contention_delay += link.contention_delay();
    result.simulated_events = engine_.executed_events();
    result.sim_queue_peak = engine_.max_queue_depth();
    result.fault_compute_perturbations = fault_compute_;
    result.fault_transfer_perturbations = fault_transfer_;
    result.fault_jitter_injections = fault_jitter_;
    result.timeline = std::move(timeline_);
    result.messages = std::move(messages_);
    result.collectives = std::move(collectives_);
    return result;
  }

private:
  struct RankCtx {
    std::span<const Event> stream;
    std::size_t cursor = 0;
    std::size_t next_op = 0;  ///< index into ops_ of the next p2p/Wait event
    Seconds now = 0.0;
    bool finished = false;

    BlockReason block_reason = BlockReason::kNone;
    Seconds block_start = 0.0;
    std::int32_t waiting_slot = -1;  ///< valid when blocked in kWait

    /// Request slots: the trace id of the request in each, its state and
    /// completion time.
    std::vector<RequestId> slot_ids;
    std::vector<SlotState> slot_state;
    std::vector<Seconds> slot_time;            ///< valid when kDone
    std::vector<std::int32_t> done;            ///< the kDone slots
    std::vector<std::int32_t> done_position;   ///< slot -> index in done
    std::size_t open_count = 0;                ///< slots in kOpen
    Seconds waitall_latest = 0.0;        ///< max completion while in WaitAll
    /// The iteration the rank is inside: it labels the rank's intervals
    /// and picks the schedule row that stretches and prices its bursts.
    /// -1 before the first begin marker and after each end marker.
    std::int32_t current_iteration = -1;
    std::uint64_t p2p_posted = 0;  ///< sends posted so far (jitter index)
  };

  RankCtx& ctx(Rank r) { return ranks_[static_cast<std::size_t>(r)]; }

  const ReplayOpRef& next_op(RankCtx& c) { return ops_[c.next_op++]; }

  /// Advance rank `r` until it blocks, finishes, or crosses simulated time.
  void advance(Rank r) {
    RankCtx& c = ctx(r);
    while (c.cursor < c.stream.size()) {
      // Keep global event ordering: never process an event that lies in the
      // future relative to the DES clock.
      if (c.now > engine_.now()) {
        engine_.schedule_at(c.now, r);
        return;
      }
      const Event& e = c.stream[c.cursor];
      bool blocked = false;
      std::visit(
          [&](const auto& ev) { blocked = !handle(r, ev); }, e);
      if (blocked) return;  // handler stored block state; match resumes us
      ++c.cursor;
    }
    c.finished = true;
  }

  // Each handler returns true if the rank may proceed to the next event
  // (c.now updated), false if the rank blocked.

  bool handle(Rank r, const ComputeEvent& e) {
    Seconds duration = e.duration;
    if (scale_ != nullptr)
      duration *= burst_factor(r, e.phase, ctx(r).current_iteration);
    run_compute(r, duration, e.phase);
    return true;
  }

  bool handle(Rank r, const MarkerEvent& e) {
    // Markers cost nothing but label the rank's subsequent intervals with
    // the iteration index. Intervals between iter_end and the next
    // iter_begin belong to no iteration (-1), so a burst there is both
    // stretched and priced at the fallback gears.
    RankCtx& c = ctx(r);
    if (e.kind == MarkerKind::kIterationEnd) c.current_iteration = -1;
    if (e.kind != MarkerKind::kIterationBegin) return true;
    c.current_iteration = e.id;
    if (scale_ == nullptr || scale_->stalls.empty()) return true;
    PALS_CHECK_MSG(e.id >= 0 && static_cast<std::size_t>(e.id) < scale_rows_,
                   "no stall entry for iteration " << e.id);
    const Seconds stall =
        scale_->stalls[static_cast<std::size_t>(e.id) *
                           static_cast<std::size_t>(n_) +
                       static_cast<std::size_t>(r)];
    // A regulator stall is wall-clock time: not stretched by the gear.
    if (stall > 0.0) run_compute(r, stall, -1);
    return true;
  }

  /// The scale's row for a burst or interval with this phase label inside
  /// `iteration` (-1 = none), or -1 for the fallback. Throws, as
  /// GearSchedule::row_of does, when no row covers the segment.
  std::ptrdiff_t scale_row(std::int32_t phase, std::int32_t iteration) const {
    switch (scale_->segment) {
      case ReplayScale::Segment::kRun:
        break;
      case ReplayScale::Segment::kPhase: {
        if (phase < 0) break;
        const auto it = std::lower_bound(scale_->phases.begin(),
                                         scale_->phases.end(), phase);
        PALS_CHECK_MSG(it != scale_->phases.end() && *it == phase,
                       "no gear row for phase " << phase);
        return it - scale_->phases.begin();
      }
      case ReplayScale::Segment::kIteration: {
        if (iteration < 0) break;
        PALS_CHECK_MSG(static_cast<std::size_t>(iteration) < scale_rows_,
                       "no gear row for iteration " << iteration);
        return iteration;
      }
    }
    return -1;
  }

  /// The schedule's time-scale factor for a burst of rank `r` with this
  /// phase label inside `iteration` (-1 = none).
  double burst_factor(Rank r, std::int32_t phase,
                      std::int32_t iteration) const {
    const auto rank = static_cast<std::size_t>(r);
    const std::ptrdiff_t row = scale_row(phase, iteration);
    if (row < 0) return scale_->fallback[rank];
    return scale_->factors[static_cast<std::size_t>(row) *
                               static_cast<std::size_t>(n_) +
                           rank];
  }

  /// Rank `r` computes for `duration` trace seconds.
  void run_compute(Rank r, Seconds duration, std::int32_t phase) {
    RankCtx& c = ctx(r);
    if (!config_.relative_speed.empty())
      duration /= config_.relative_speed[static_cast<std::size_t>(r)];
    if (config_.faults != nullptr) {
      const double factor = config_.faults->compute_factor(r, c.now);
      if (factor != 1.0) {
        duration *= factor;
        ++fault_compute_;
      }
    }
    record(r, c.now, c.now + duration, RankState::kCompute, phase);
    c.now += duration;
  }

  bool handle(Rank r, const SendEvent& e) {
    return post_send(r, next_op(ctx(r)), e.peer, e.tag, e.bytes,
                     /*blocking=*/true);
  }

  bool handle(Rank r, const IsendEvent& e) {
    RankCtx& c = ctx(r);
    const ReplayOpRef& op = next_op(c);
    c.slot_ids[static_cast<std::size_t>(op.slot)] = e.request;
    return post_send(r, op, e.peer, e.tag, e.bytes, /*blocking=*/false);
  }

  bool handle(Rank r, const RecvEvent& e) {
    return post_recv(r, next_op(ctx(r)), e.peer, e.tag, /*blocking=*/true);
  }

  bool handle(Rank r, const IrecvEvent& e) {
    RankCtx& c = ctx(r);
    const ReplayOpRef& op = next_op(c);
    c.slot_ids[static_cast<std::size_t>(op.slot)] = e.request;
    return post_recv(r, op, e.peer, e.tag, /*blocking=*/false);
  }

  bool handle(Rank r, const WaitEvent& e) {
    RankCtx& c = ctx(r);
    const std::int32_t slot = next_op(c).slot;
    PALS_CHECK_MSG(slot >= 0,
                   "rank " << r << ": wait on unknown request " << e.request);
    if (c.slot_state[static_cast<std::size_t>(slot)] == SlotState::kDone) {
      const Seconds t =
          std::max(c.now, c.slot_time[static_cast<std::size_t>(slot)]);
      record(r, c.now, t, RankState::kWait, -1);
      c.now = t;
      release(c, slot);
      return true;
    }
    c.block_reason = BlockReason::kWait;
    c.block_start = c.now;
    c.waiting_slot = slot;
    return false;
  }

  bool handle(Rank r, const WaitAllEvent&) {
    RankCtx& c = ctx(r);
    Seconds latest = c.now;
    for (const std::int32_t slot : c.done)
      latest = std::max(latest, c.slot_time[static_cast<std::size_t>(slot)]);
    if (c.open_count == 0) {
      record(r, c.now, latest, RankState::kWait, -1);
      c.now = latest;
      release_all(c);
      return true;
    }
    c.block_reason = BlockReason::kWaitAll;
    c.block_start = c.now;
    c.waitall_latest = latest;
    return false;
  }

  bool handle(Rank r, const CollectiveEvent& e) {
    RankCtx& c = ctx(r);
    CollectiveState& state = collective_;
    if (state.arrivals.empty()) {
      state.op = e.op;
      state.root = e.root;
      state.max_bytes = 0;
    }
    state.max_bytes = std::max(state.max_bytes, e.bytes);
    state.arrivals.emplace_back(r, c.now);

    c.block_reason = BlockReason::kCollective;
    c.block_start = c.now;

    if (state.arrivals.size() == static_cast<std::size_t>(n_)) {
      Seconds last_arrival = 0.0;
      for (const auto& [rank, t] : state.arrivals)
        last_arrival = std::max(last_arrival, t);
      const Seconds done =
          last_arrival +
          collective_cost(config_.platform, state.op, n_, state.max_bytes);
      for (const auto& [rank, t] : state.arrivals) resume(rank, done);
      ++collective_operations_;
      if (full_)
        collectives_.push_back(CollectiveRecord{
            state.op, state.max_bytes, state.root, done, state.arrivals});
      state.arrivals.clear();
    }
    return false;  // even the last arriver resumes through resume()
  }

  bool post_send(Rank r, const ReplayOpRef& op, Rank peer, std::int32_t tag,
                 Bytes bytes, bool blocking) {
    RankCtx& c = ctx(r);
    const bool eager = bytes <= config_.platform.eager_threshold;
    const Seconds latency = config_.platform.latency;
    // Jitter is drawn at post time from the sender's message index so that
    // both rendezvous halves (which match at different times) agree on it.
    const Seconds jitter = send_jitter(r, c.p2p_posted++);
    ++p2p_messages_;
    p2p_bytes_ += bytes;
    if (eager)
      ++eager_messages_;
    else
      ++rendezvous_messages_;

    if (eager) {
      // Payload leaves regardless of the receiver.
      const Seconds transfer = perturbed_transfer(r, peer, c.now, bytes);
      const Seconds start = reserve_transfer(r, peer, c.now, transfer);
      const Seconds arrival = start + latency + jitter + transfer;
      log_message(r, peer, tag, bytes, c.now, arrival);
      if (!recvs_.empty(op.channel)) {
        const PendingRecv rv = recvs_.front(op.channel);
        recvs_.pop(op.channel);
        complete_recv(peer, rv, arrival);
      } else {
        sends_.push(op.channel, PendingSend{c.now, bytes, true, blocking,
                                            op.slot, arrival, jitter});
      }
      const Seconds sender_done = c.now + latency;
      if (blocking) {
        record(r, c.now, sender_done, RankState::kSend, -1);
        c.now = sender_done;
      } else {
        complete(r, op.slot, sender_done);
      }
      return true;
    }

    // Rendezvous.
    if (!recvs_.empty(op.channel)) {
      const PendingRecv rv = recvs_.front(op.channel);
      recvs_.pop(op.channel);
      const Seconds both_posted = std::max(c.now, rv.post_time);
      const Seconds transfer = perturbed_transfer(r, peer, both_posted, bytes);
      const Seconds start =
          reserve_transfer(r, peer, both_posted + latency + jitter, transfer);
      const Seconds end = start + transfer;
      log_message(r, peer, tag, bytes, c.now, end);
      complete_recv(peer, rv, end);
      if (blocking) {
        record(r, c.now, end, RankState::kSend, -1);
        c.now = end;
        return true;
      }
      complete(r, op.slot, end);
      return true;
    }

    sends_.push(op.channel, PendingSend{c.now, bytes, false, blocking,
                                        op.slot, 0.0, jitter});
    if (blocking) {
      c.block_reason = BlockReason::kSend;
      c.block_start = c.now;
      return false;
    }
    open(c, op.slot);
    return true;
  }

  bool post_recv(Rank r, const ReplayOpRef& op, Rank peer, std::int32_t tag,
                 bool blocking) {
    RankCtx& c = ctx(r);
    const Seconds latency = config_.platform.latency;

    if (!sends_.empty(op.channel)) {
      // The payload size is taken from the sender record.
      const PendingSend sd = sends_.front(op.channel);
      sends_.pop(op.channel);
      Seconds data_ready = 0.0;
      if (sd.eager) {
        data_ready = sd.arrival;
      } else {
        const Seconds both_posted = std::max(c.now, sd.post_time);
        const Seconds transfer =
            perturbed_transfer(peer, r, both_posted, sd.bytes);
        const Seconds start = reserve_transfer(
            peer, r, both_posted + latency + sd.jitter, transfer);
        data_ready = start + transfer;
        log_message(peer, r, tag, sd.bytes, sd.post_time, data_ready);
        // Release or complete the sender half of the rendezvous.
        if (sd.blocking) {
          resume(peer, data_ready);
        } else {
          complete_remote(peer, sd.slot, data_ready);
        }
      }
      const Seconds done = std::max(c.now, data_ready);
      if (blocking) {
        record(r, c.now, done, RankState::kRecv, -1);
        c.now = done;
        return true;
      }
      complete(r, op.slot, done);
      return true;
    }

    recvs_.push(op.channel, PendingRecv{c.now, blocking, op.slot});
    if (blocking) {
      c.block_reason = BlockReason::kRecv;
      c.block_start = c.now;
      return false;
    }
    open(c, op.slot);
    return true;
  }

  /// Transfer duration for `bytes` from src to dst, degraded by any active
  /// link faults (a degraded link makes the payload take `factor`x longer).
  Seconds perturbed_transfer(Rank src, Rank dst, Seconds when, Bytes bytes) {
    Seconds transfer = config_.platform.transfer_time(bytes);
    if (config_.faults != nullptr) {
      const double factor = config_.faults->transfer_factor(src, dst, when);
      if (factor != 1.0) {
        transfer *= factor;
        ++fault_transfer_;
      }
    }
    return transfer;
  }

  /// Extra message latency for the sender's `index`-th posted message.
  Seconds send_jitter(Rank r, std::uint64_t index) {
    if (config_.faults == nullptr) return 0.0;
    const Seconds jitter = config_.faults->latency_jitter(r, index);
    if (jitter > 0.0) ++fault_jitter_;
    return jitter;
  }

  /// Reserve the network stages of a transfer (source output link, then
  /// destination input link, then a shared bus) and return its start time.
  Seconds reserve_transfer(Rank src, Rank dst, Seconds earliest,
                           Seconds duration) {
    Seconds start =
        out_links_[static_cast<std::size_t>(src)].reserve(earliest, duration);
    start = in_links_[static_cast<std::size_t>(dst)].reserve(start, duration);
    return bus_.reserve(start, duration);
  }

  /// Complete the receiver side of a matched message at `data_ready`.
  void complete_recv(Rank r, const PendingRecv& rv, Seconds data_ready) {
    if (rv.blocking) {
      resume(r, std::max(rv.post_time, data_ready));
    } else {
      complete_remote(r, rv.slot, data_ready);
    }
  }

  /// A posted request whose completion is not known yet.
  static void open(RankCtx& c, std::int32_t slot) {
    SlotState& state = c.slot_state[static_cast<std::size_t>(slot)];
    PALS_CHECK(state == SlotState::kFree);
    state = SlotState::kOpen;
    ++c.open_count;
  }

  /// Record a request completion for the rank currently executing (its
  /// event is being handled, so no wake-up is due).
  void complete(Rank r, std::int32_t slot, Seconds t) {
    RankCtx& c = ctx(r);
    const auto s = static_cast<std::size_t>(slot);
    PALS_CHECK_MSG(c.slot_state[s] != SlotState::kDone,
                   "rank " << r << ": request " << c.slot_ids[s]
                           << " completed twice");
    if (c.slot_state[s] == SlotState::kOpen) --c.open_count;
    c.slot_state[s] = SlotState::kDone;
    c.slot_time[s] = t;
    c.done_position[s] = static_cast<std::int32_t>(c.done.size());
    c.done.push_back(slot);
  }

  /// Complete a request of a *different* rank, possibly waking it from
  /// Wait/Waitall.
  void complete_remote(Rank r, std::int32_t slot, Seconds t) {
    complete(r, slot, t);
    RankCtx& c = ctx(r);
    if (c.block_reason == BlockReason::kWait && c.waiting_slot == slot) {
      const Seconds resume_at = std::max(c.block_start, t);
      release(c, slot);
      c.waiting_slot = -1;
      resume(r, resume_at);
    } else if (c.block_reason == BlockReason::kWaitAll) {
      c.waitall_latest = std::max(c.waitall_latest, t);
      if (c.open_count == 0) {
        release_all(c);
        resume(r, std::max(c.block_start, c.waitall_latest));
      }
    }
  }

  /// Free a completed slot that a Wait consumed.
  static void release(RankCtx& c, std::int32_t slot) {
    const auto s = static_cast<std::size_t>(slot);
    const auto position = static_cast<std::size_t>(c.done_position[s]);
    const std::int32_t moved = c.done.back();
    c.done[position] = moved;
    c.done_position[static_cast<std::size_t>(moved)] =
        static_cast<std::int32_t>(position);
    c.done.pop_back();
    c.done_position[s] = -1;
    c.slot_state[s] = SlotState::kFree;
  }

  /// Free every completed slot (a Waitall consumed them).
  static void release_all(RankCtx& c) {
    for (const std::int32_t slot : c.done) {
      c.slot_state[static_cast<std::size_t>(slot)] = SlotState::kFree;
      c.done_position[static_cast<std::size_t>(slot)] = -1;
    }
    c.done.clear();
  }

  /// Wake a blocked rank at time `t`: close its blocked interval, consume
  /// the blocking event and reschedule it.
  void resume(Rank r, Seconds t) {
    RankCtx& c = ctx(r);
    PALS_CHECK_MSG(c.block_reason != BlockReason::kNone,
                   "resume of non-blocked rank " << r);
    const RankState state = [&] {
      switch (c.block_reason) {
        case BlockReason::kSend: return RankState::kSend;
        case BlockReason::kRecv: return RankState::kRecv;
        case BlockReason::kWait:
        case BlockReason::kWaitAll: return RankState::kWait;
        case BlockReason::kCollective: return RankState::kCollective;
        case BlockReason::kNone: break;
      }
      return RankState::kIdle;
    }();
    record(r, c.block_start, t, state, -1);
    c.block_reason = BlockReason::kNone;
    c.now = t;
    ++c.cursor;  // the blocking event is done
    engine_.schedule_at(t, r);
  }

  void record(Rank r, Seconds begin, Seconds end, RankState state,
              std::int32_t phase) {
    push(r, StateInterval{begin, end, state, phase, ctx(r).current_iteration});
  }

  /// Stream one state interval into rank `r`'s lane: Timeline::append's
  /// checks and snapping, then coalesced into the open interval when it
  /// has the same state, phase and iteration.
  void push(Rank r, StateInterval iv) {
    Lane& lane = lanes_[static_cast<std::size_t>(r)];
    if (!admit_interval(r, iv, lane.started ? &lane.open.end : nullptr))
      return;
    if (!lane.started) {
      check_lane_start(r, iv.begin);
      lane.open = iv;
      lane.started = true;
      return;
    }
    if (iv.state == lane.open.state && iv.phase == lane.open.phase &&
        iv.iteration == lane.open.iteration) {
      lane.open.end = iv.end;
      return;
    }
    close(r, lane);
    lane.open = iv;
  }

  /// Account the lane's open interval: its time, its energy and, in a
  /// full replay, its place in the timeline.
  void close(Rank r, Lane& lane) {
    const StateInterval& iv = lane.open;
    const Seconds duration = iv.duration();
    const bool computing = iv.state == RankState::kCompute;
    (computing ? lane.compute : lane.communication) += duration;
    if (integrate_energy_) {
      const std::ptrdiff_t row = scale_row(iv.phase, iv.iteration);
      const std::size_t power_row =
          row < 0 ? scale_rows_ : static_cast<std::size_t>(row);
      lane.energy +=
          duration *
          scale_->power[(power_row * static_cast<std::size_t>(n_) +
                         static_cast<std::size_t>(r)) *
                            2 +
                        (computing ? 1 : 0)];
    }
    if (full_) timeline_.append(r, iv);
  }

  /// Pad every lane with idle to the makespan and close it; returns the
  /// makespan (the end of the longest lane).
  Seconds close_lanes() {
    Seconds makespan = 0.0;
    for (const Lane& lane : lanes_)
      if (lane.started) makespan = std::max(makespan, lane.open.end);
    for (Rank r = 0; r < n_; ++r) {
      Lane& lane = lanes_[static_cast<std::size_t>(r)];
      const Seconds end = lane.started ? lane.open.end : 0.0;
      if (end < makespan)
        push(r, StateInterval{end, makespan, RankState::kIdle, -1, -1});
      if (lane.started) close(r, lane);
    }
    return makespan;
  }

  /// Count a matched message; a full replay also logs it.
  void log_message(Rank src, Rank dst, std::int32_t tag, Bytes bytes,
                   Seconds send_time, Seconds recv_time) {
    ++messages_matched_;
    if (full_)
      messages_.push_back(
          MessageRecord{src, dst, tag, bytes, send_time, recv_time});
  }

  void check_completion() const {
    bool deadlock = false;
    for (Rank r = 0; r < n_; ++r)
      if (!ranks_[static_cast<std::size_t>(r)].finished) deadlock = true;
    if (!deadlock) return;
    // Re-derive the blocked state with the static linter's abstract
    // machine: same matching semantics, but it names the wait-for cycle
    // (or starved rank) instead of just listing stuck ranks.
    const lint::DeadlockInfo info =
        lint::analyze_deadlock(trace_, config_.platform.eager_threshold);
    if (info.deadlocked)
      throw Error("replay deadlock: not all ranks completed" +
                  info.describe());
    // The abstract machine should agree with the replay; if it ever does
    // not, fall back to the replay's own view rather than report success.
    std::ostringstream blocked;
    for (Rank r = 0; r < n_; ++r) {
      const RankCtx& c = ranks_[static_cast<std::size_t>(r)];
      if (!c.finished) {
        blocked << "\n  rank " << r << " stuck at event " << c.cursor << "/"
                << c.stream.size();
        if (c.cursor < c.stream.size())
          blocked << " (" << to_string(c.stream[c.cursor]) << ")";
      }
    }
    throw Error("replay deadlock: not all ranks completed" + blocked.str());
  }

  const Trace& trace_;
  ReplayConfig config_;
  const ReplayScale* scale_;
  /// Rows of the scale's factor table (0 without a scale).
  std::size_t scale_rows_ = 0;
  bool integrate_energy_ = false;  ///< the scale carries power rates
  bool full_;  ///< keep the timeline, message log and collective records
  Rank n_;
  SimEngine engine_;
  BusAllocator bus_;
  std::vector<BusAllocator> out_links_;
  std::vector<BusAllocator> in_links_;
  std::vector<RankCtx> ranks_;
  std::vector<Lane> lanes_;
  Timeline timeline_;  ///< full replays only

  const std::vector<ReplayOpRef>& ops_;  ///< the program's refs
  ChannelQueues<PendingSend> sends_;
  ChannelQueues<PendingRecv> recvs_;
  CollectiveState collective_;
  std::vector<CollectiveRecord> collectives_;  ///< full replays only

  std::size_t messages_matched_ = 0;
  std::size_t collective_operations_ = 0;
  std::size_t p2p_messages_ = 0;
  Bytes p2p_bytes_ = 0;
  std::size_t eager_messages_ = 0;
  std::size_t rendezvous_messages_ = 0;
  std::size_t fault_compute_ = 0;
  std::size_t fault_transfer_ = 0;
  std::size_t fault_jitter_ = 0;
  std::vector<MessageRecord> messages_;
};

}  // namespace

void ReplayConfig::validate() const {
  platform.validate();
  for (const double s : relative_speed)
    PALS_CHECK_MSG(s > 0.0, "relative CPU speeds must be positive");
  PALS_CHECK_MSG(max_wall_seconds >= 0.0,
                 "max_wall_seconds must be >= 0 (0 disables the watchdog)");
}

ReplayProgram::ReplayProgram(const Trace& trace) {
  trace.validate();
  const auto n = static_cast<std::size_t>(trace.n_ranks());
  events_.reserve(n);
  std::size_t refs = 0;
  for (Rank r = 0; r < trace.n_ranks(); ++r) {
    const std::span<const Event> stream = trace.events(r);
    events_.push_back(stream.size());
    for (const Event& e : stream) {
      if (std::holds_alternative<SendEvent>(e) ||
          std::holds_alternative<IsendEvent>(e)) {
        ++sends_;
        ++refs;
      } else if (std::holds_alternative<RecvEvent>(e) ||
                 std::holds_alternative<IrecvEvent>(e) ||
                 std::holds_alternative<WaitEvent>(e)) {
        ++refs;
      }
    }
  }
  // One pass over the streams: every (src, dst, tag) gets a dense channel
  // id and every open request a rank-local slot, and each p2p and Wait
  // event gets its ReplayOpRef in stream order, so the replay loop matches
  // and completes through plain vector indexing. The trace is valid, so
  // every Isend/Irecv opens a slot and every Wait closes one.
  ops_.reserve(refs);
  first_op_.reserve(n);
  slots_.reserve(n);
  ChannelIds channels;
  for (Rank r = 0; r < trace.n_ranks(); ++r) {
    first_op_.push_back(ops_.size());
    OpenRequests requests;
    for (const Event& e : trace.events(r)) {
      if (const auto* s = std::get_if<SendEvent>(&e)) {
        ops_.push_back(ReplayOpRef{channels.id(r, s->peer, s->tag), -1});
      } else if (const auto* v = std::get_if<RecvEvent>(&e)) {
        ops_.push_back(ReplayOpRef{channels.id(v->peer, r, v->tag), -1});
      } else if (const auto* is = std::get_if<IsendEvent>(&e)) {
        ops_.push_back(ReplayOpRef{channels.id(r, is->peer, is->tag),
                                   requests.open(is->request)});
      } else if (const auto* ir = std::get_if<IrecvEvent>(&e)) {
        ops_.push_back(ReplayOpRef{channels.id(ir->peer, r, ir->tag),
                                   requests.open(ir->request)});
      } else if (const auto* w = std::get_if<WaitEvent>(&e)) {
        ops_.push_back(ReplayOpRef{-1, requests.close(w->request)});
      } else if (std::holds_alternative<WaitAllEvent>(e)) {
        requests.close_all();
      }
    }
    slots_.push_back(requests.slots());
  }
  channels_ = channels.size();
  iterations_ = trace.iteration_count();
}

bool ReplayProgram::matches(const Trace& trace) const {
  if (trace.n_ranks() != n_ranks()) return false;
  for (Rank r = 0; r < trace.n_ranks(); ++r)
    if (trace.events(r).size() != events_[static_cast<std::size_t>(r)])
      return false;
  return true;
}

std::size_t ReplayProgram::approx_bytes() const {
  return (events_.size() + first_op_.size()) * sizeof(std::size_t) +
         ops_.size() * sizeof(ReplayOpRef) +
         slots_.size() * sizeof(std::int32_t);
}

namespace {

/// Throws unless `scale` fits the program's ranks and iterations, every
/// factor is finite and positive and no stall is negative.
void check_scale(const ReplayScale& scale, const ReplayProgram& program) {
  const auto n = static_cast<std::size_t>(program.n_ranks());
  PALS_CHECK_MSG(scale.fallback.size() == n,
                 "scale has " << scale.fallback.size()
                              << " fallback factors for " << n << " ranks");
  PALS_CHECK_MSG(scale.factors.size() % n == 0,
                 "scale factor table is not a whole number of rank rows");
  const std::size_t rows = scale.factors.size() / n;
  PALS_CHECK_MSG(scale.segment != ReplayScale::Segment::kRun || rows == 0,
                 "a whole-run scale has no rows");
  PALS_CHECK_MSG(scale.segment != ReplayScale::Segment::kPhase ||
                     scale.phases.size() == rows,
                 "phase label/scale row count mismatch");
  PALS_CHECK_MSG(scale.segment != ReplayScale::Segment::kIteration ||
                     program.iterations() > 0,
                 "an iteration schedule requires iteration markers");
  const auto check_factor = [](double factor) {
    PALS_CHECK_MSG(std::isfinite(factor) && factor > 0.0,
                   "time-scale factor " << factor
                                        << " is not finite and positive");
  };
  for (const double factor : scale.factors) check_factor(factor);
  for (const double factor : scale.fallback) check_factor(factor);
  PALS_CHECK_MSG(
      scale.power.empty() || scale.power.size() == (rows + 1) * n * 2,
      "scale power table has " << scale.power.size() << " rates for "
                               << rows + 1 << " rows of " << n << " ranks");
  for (const double power : scale.power)
    PALS_CHECK_MSG(std::isfinite(power) && power >= 0.0,
                   "power rate " << power << " is not finite and >= 0");
  if (scale.stalls.empty()) return;
  PALS_CHECK_MSG(scale.segment == ReplayScale::Segment::kIteration &&
                     scale.stalls.size() == scale.factors.size(),
                 "transition stalls need one row per iteration");
  for (const Seconds stall : scale.stalls)
    PALS_CHECK_MSG(stall >= 0.0, "negative transition stall");
}

}  // namespace

ReplayResult replay(const Trace& trace, const ReplayConfig& config) {
  config.validate();
  const ReplayProgram program(trace);
  return replay(trace, program, config);
}

ReplayResult replay(const Trace& trace, const ReplayProgram& program,
                    const ReplayConfig& config, const ReplayScale* scale,
                    ReplayOutput output) {
  config.validate();
  PALS_CHECK_MSG(program.matches(trace),
                 "replay program was compiled for a trace of another shape");
  PALS_CHECK_MSG(config.relative_speed.empty() ||
                     config.relative_speed.size() ==
                         static_cast<std::size_t>(trace.n_ranks()),
                 "relative_speed must be empty or one entry per rank");
  if (scale != nullptr) check_scale(*scale, program);
  ReplayEngine engine(trace, program, config, scale, output);
  ReplayResult result = engine.run();

  // Self-record into the process-global registry. All values are integer
  // counts or integer nanoseconds, so concurrent replays (scenario sweep
  // workers) accumulate commutatively — snapshots stay deterministic.
  obs::Registry& reg = obs::default_registry();
  reg.counter("replay.runs").add(1);
  reg.counter("replay.events").add(result.simulated_events);
  reg.counter("replay.messages_matched").add(result.messages_matched);
  reg.counter("replay.messages_eager").add(result.eager_messages);
  reg.counter("replay.messages_rendezvous").add(result.rendezvous_messages);
  reg.counter("replay.p2p_bytes").add(result.point_to_point_bytes);
  reg.counter("replay.collectives").add(result.collective_operations);
  reg.counter("replay.bus_wait_ns")
      .add(static_cast<std::uint64_t>(
          obs::to_nanos(result.bus_contention_delay)));
  reg.counter("replay.link_wait_ns")
      .add(static_cast<std::uint64_t>(
          obs::to_nanos(result.link_contention_delay)));
  reg.gauge("sim.queue_peak")
      .update_max(static_cast<std::int64_t>(result.sim_queue_peak));
  if (config.faults != nullptr) {
    // Only touched under fault injection so fault-free runs keep their
    // exact metric snapshots.
    reg.counter("fault.compute_perturbations")
        .add(result.fault_compute_perturbations);
    reg.counter("fault.transfer_perturbations")
        .add(result.fault_transfer_perturbations);
    reg.counter("fault.jitter_injections")
        .add(result.fault_jitter_injections);
  }
  return result;
}

}  // namespace pals
