#include "analysis/replay_pins.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "replay/replay.hpp"
#include "trace/trace.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pals {
namespace {

/// How an iteration ends, and what lies outside the iterations.
enum class Shape {
  kCollectiveEnds,  ///< every iteration ends in a collective
  /// Every iteration ends in a round of blocking exchanges pairing all
  /// ranks, so the ranks leave it at different times.
  kP2pEnds,
  /// p2p ends, and one rank computes a long burst before the last
  /// exchange: its partner waits, every other rank finishes early.
  kEarlyFinish,
  /// Collective ends, then a compute burst on every rank before the next
  /// iteration begins (and after the last one ends).
  kBetweenIterations,
};

struct PinCase {
  const char* name;
  std::uint64_t seed;
  Rank ranks;
  int iterations;
  int tags;      ///< message tags are drawn from [-1, tags - 1]
  int messages;  ///< non-blocking messages per iteration
  Bytes eager_threshold;
  int buses;
  int links_per_node;
  const char* faults;  ///< fault plan, "" for none
  bool heterogeneous;  ///< random relative CPU speeds
  Shape shape;
};

constexpr Shape kCollective = Shape::kCollectiveEnds;
constexpr PinCase kCases[] = {
    {"p2p-8", 1, 8, 4, 4, 24, 32768, 0, 0, "", false, kCollective},
    {"many-tags-4", 2, 4, 3, 64, 48, 32768, 0, 0, "", false, kCollective},
    {"contended-16", 3, 16, 3, 6, 48, 32768, 2, 1, "", false, kCollective},
    {"one-bus-6", 4, 6, 3, 3, 18, 4096, 1, 0, "", false, kCollective},
    {"faults-12", 5, 12, 4, 5, 36, 32768, 0, 2,
     "seed=11; msg_delay_jitter:rank=all,max=1e-4; "
     "link_degrade:rank=3,t=0.0005,factor=3; "
     "node_slowdown:rank=1,t=0.0,factor=2",
     false, kCollective},
    {"hetero-rendezvous-5", 6, 5, 3, 3, 20, 256, 0, 0, "", true, kCollective},
    {"p2p-ends-8", 7, 8, 4, 4, 24, 4096, 0, 0, "", false, Shape::kP2pEnds},
    {"early-finish-6", 8, 6, 3, 3, 18, 32768, 0, 1, "", false,
     Shape::kEarlyFinish},
    {"between-iterations-6", 9, 6, 3, 3, 18, 32768, 0, 0, "", false,
     Shape::kBetweenIterations},
};

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
}

template <typename T>
void shuffle(Rng& rng, std::vector<T>& items) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[pick(rng, i)]);
}

/// A payload on either side of the eager threshold, edges included.
Bytes payload(Rng& rng, Bytes eager) {
  switch (rng.uniform_int(0, 7)) {
    case 0: return 0;
    case 1: return eager - 1;
    case 2: return eager;
    case 3: return eager + 1;
    case 4: return rng.uniform_int(1, eager);
    case 5: return rng.uniform_int(eager + 1, 4 * eager);
    case 6: return rng.uniform_int(1, 1024);
    default: return Bytes{1} << 20;
  }
}

/// Request ids of one rank: sparse, negative and extreme values that
/// every iteration reuses, plus fresh random ids when the pool is busy.
class RequestIds {
public:
  RequestId open(Rng& rng) {
    static constexpr RequestId kPool[] = {
        std::numeric_limits<RequestId>::min(), -1000000, -7, -1, 0, 1, 2,
        3, 99, 4096, 1 << 24, std::numeric_limits<RequestId>::max()};
    constexpr std::size_t kSize = sizeof(kPool) / sizeof(kPool[0]);
    const std::size_t start = pick(rng, kSize);
    for (std::size_t k = 0; k < kSize; ++k) {
      const RequestId id = kPool[(start + k) % kSize];
      if (!is_open(id)) return add(id);
    }
    for (;;) {
      const auto id = static_cast<RequestId>(
          static_cast<std::int64_t>(rng.uniform_int(0, 0xffffffffULL)) -
          (std::int64_t{1} << 31));
      if (!is_open(id)) return add(id);
    }
  }
  void close(RequestId id) {
    ids_.erase(std::find(ids_.begin(), ids_.end(), id));
  }
  std::vector<RequestId>& ids() { return ids_; }

private:
  bool is_open(RequestId id) const {
    return std::find(ids_.begin(), ids_.end(), id) != ids_.end();
  }
  RequestId add(RequestId id) {
    ids_.push_back(id);
    return id;
  }
  std::vector<RequestId> ids_;
};

/// A deadlock-free random iteration structure, repeated `iterations`
/// times with fresh draws:
///  1. a compute burst per rank;
///  2. non-blocking messages between random pairs, posted in one random
///     order that keeps every (src, dst, tag) channel FIFO on both sides;
///     eager Isends are sometimes waited on at once (they complete
///     locally), the rest by a random mix of Waits and a final Waitall;
///  3. zero to two rounds of blocking exchanges over random pairings;
///  4. one collective (random op, root and per-rank bytes), or, by the
///     case's Shape, one more exchange round over all ranks.
/// Every post of phase 2 precedes every blocking wait, and a round's
/// pairs are disjoint and keep each channel FIFO, so no rank can wait on
/// a peer that is blocked.
Trace random_trace(const PinCase& pc) {
  Rng rng(pc.seed);
  const Rank n = pc.ranks;
  const auto rank_count = static_cast<std::size_t>(n);
  Trace trace(n);
  std::vector<TraceBuilder> b;
  for (Rank r = 0; r < n; ++r) b.emplace_back(trace, r);
  std::vector<RequestIds> requests(rank_count);
  constexpr CollectiveOp kOps[] = {
      CollectiveOp::kBarrier,   CollectiveOp::kBcast,
      CollectiveOp::kReduce,    CollectiveOp::kAllreduce,
      CollectiveOp::kGather,    CollectiveOp::kAllgather,
      CollectiveOp::kScatter,   CollectiveOp::kAlltoall,
      CollectiveOp::kReduceScatter};
  const auto random_tag = [&] {
    return static_cast<std::int32_t>(
               rng.uniform_int(0, static_cast<std::uint64_t>(pc.tags))) -
           1;
  };

  const auto compute_burst = [&](Rank r) {
    const Seconds burst =
        rng.uniform_int(0, 9) == 0 ? 0.0 : rng.uniform(0.0, 2e-3);
    b[static_cast<std::size_t>(r)].compute(
        burst, static_cast<std::int32_t>(rng.uniform_int(0, 1)));
  };
  // Blocking exchanges over a random pairing of the ranks.
  const auto exchange_round = [&] {
    std::vector<Rank> order(rank_count);
    for (Rank r = 0; r < n; ++r) order[static_cast<std::size_t>(r)] = r;
    shuffle(rng, order);
    for (std::size_t k = 0; k + 1 < order.size(); k += 2) {
      const Rank first = order[k];
      const Rank second = order[k + 1];
      const std::int32_t tag = random_tag();
      const Bytes there = payload(rng, pc.eager_threshold);
      const Bytes back = payload(rng, pc.eager_threshold);
      b[static_cast<std::size_t>(first)]
          .send(second, tag, there)
          .recv(second, tag, back);
      b[static_cast<std::size_t>(second)]
          .recv(first, tag, there)
          .send(first, tag, back);
    }
  };

  for (int it = 0; it < pc.iterations; ++it) {
    for (Rank r = 0; r < n; ++r) {
      b[static_cast<std::size_t>(r)].marker(MarkerKind::kIterationBegin, it);
      compute_burst(r);
    }

    for (int m = 0; m < pc.messages; ++m) {
      const auto src = static_cast<Rank>(pick(rng, rank_count));
      auto dst = static_cast<Rank>(pick(rng, rank_count - 1));
      if (dst >= src) ++dst;
      const std::int32_t tag = random_tag();
      const Bytes bytes = payload(rng, pc.eager_threshold);
      auto& sender = requests[static_cast<std::size_t>(src)];
      const RequestId sid = sender.open(rng);
      b[static_cast<std::size_t>(src)].isend(dst, tag, bytes, sid);
      if (bytes <= pc.eager_threshold && rng.uniform_int(0, 2) == 0) {
        b[static_cast<std::size_t>(src)].wait(sid);
        sender.close(sid);
      }
      auto& receiver = requests[static_cast<std::size_t>(dst)];
      b[static_cast<std::size_t>(dst)].irecv(src, tag, bytes,
                                             receiver.open(rng));
    }
    for (Rank r = 0; r < n; ++r) {
      std::vector<RequestId>& open = requests[static_cast<std::size_t>(r)].ids();
      shuffle(rng, open);
      const std::size_t singles = pick(rng, open.size() + 1);
      for (std::size_t k = 0; k < singles; ++k)
        b[static_cast<std::size_t>(r)].wait(open[k]);
      if (singles < open.size() || rng.uniform_int(0, 1) == 0)
        b[static_cast<std::size_t>(r)].waitall();
      open.clear();
    }

    const auto rounds = rng.uniform_int(0, 2);
    for (std::uint64_t round = 0; round < rounds; ++round) exchange_round();

    if (pc.shape == Shape::kP2pEnds || pc.shape == Shape::kEarlyFinish) {
      if (pc.shape == Shape::kEarlyFinish && it + 1 == pc.iterations)
        b[pick(rng, rank_count)].compute(rng.uniform(2e-2, 4e-2), 0);
      exchange_round();
      for (Rank r = 0; r < n; ++r)
        b[static_cast<std::size_t>(r)].marker(MarkerKind::kIterationEnd, it);
      continue;
    }
    const CollectiveOp op = kOps[pick(rng, std::size(kOps))];
    const auto root = static_cast<Rank>(pick(rng, rank_count));
    for (Rank r = 0; r < n; ++r)
      b[static_cast<std::size_t>(r)]
          .collective(op, rng.uniform_int(0, 1 << 18), root)
          .marker(MarkerKind::kIterationEnd, it);
    if (pc.shape == Shape::kBetweenIterations)
      for (Rank r = 0; r < n; ++r) compute_burst(r);
  }
  return trace;
}

}  // namespace

std::vector<ReplayPinCase> replay_pin_cases() {
  std::vector<ReplayPinCase> cases;
  for (const PinCase& pc : kCases) {
    ReplayPinCase& c = cases.emplace_back();
    c.name = pc.name;
    c.seed = pc.seed;
    c.trace = random_trace(pc);
    c.config.platform.eager_threshold = pc.eager_threshold;
    c.config.platform.buses = pc.buses;
    c.config.platform.links_per_node = pc.links_per_node;
    if (*pc.faults != '\0') {
      c.faults = std::make_unique<fault::Injector>(
          fault::FaultPlan::parse(pc.faults));
      c.config.faults = c.faults.get();
    }
    if (pc.heterogeneous) {
      Rng speeds(pc.seed + 1000);
      for (Rank r = 0; r < pc.ranks; ++r)
        c.config.relative_speed.push_back(speeds.uniform(0.5, 2.0));
    }
  }
  return cases;
}

std::string replay_pins_csv() {
  std::ostringstream out;
  out << "case,key,value\n";
  for (const ReplayPinCase& pc : replay_pin_cases()) {
    const Trace& trace = pc.trace;
    const ReplayResult result = replay(trace, pc.config);

    const auto line = [&](const std::string& key, const std::string& value) {
      out << pc.name << ',' << key << ',' << value << '\n';
    };
    const auto count = [&](const std::string& key, std::size_t value) {
      line(key, std::to_string(value));
    };
    count("trace_events", trace.total_events());
    line("makespan", format_roundtrip(result.makespan));
    for (Rank r = 0; r < trace.n_ranks(); ++r) {
      std::string totals;
      for (const RankState state :
           {RankState::kCompute, RankState::kSend, RankState::kRecv,
            RankState::kWait, RankState::kCollective, RankState::kIdle})
        totals += (totals.empty() ? "" : " ") +
                  format_roundtrip(result.timeline.state_time(r, state));
      line("states.rank." + std::to_string(r), totals);
    }
    std::string order;
    for (const MessageRecord& m : result.messages)
      order += std::to_string(m.src) + ' ' + std::to_string(m.dst) + ' ' +
               std::to_string(m.tag) + ' ' + std::to_string(m.bytes) + ' ' +
               format_roundtrip(m.send_time) + ' ' +
               format_roundtrip(m.recv_time) + '\n';
    count("messages", result.messages.size());
    line("message_order_fnv1a64", to_hex(fnv1a64(order), 16));
    count("eager_messages", result.eager_messages);
    count("rendezvous_messages", result.rendezvous_messages);
    count("collectives", result.collective_operations);
    line("bus_contention_delay", format_roundtrip(result.bus_contention_delay));
    line("link_contention_delay",
         format_roundtrip(result.link_contention_delay));
    count("fault_compute_perturbations", result.fault_compute_perturbations);
    count("fault_transfer_perturbations", result.fault_transfer_perturbations);
    count("fault_jitter_injections", result.fault_jitter_injections);
    count("simulated_events", result.simulated_events);
    count("sim_queue_peak", result.sim_queue_peak);
  }
  return out.str();
}

}  // namespace pals
