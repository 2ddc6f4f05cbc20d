// Property-based tests of the replay simulator over randomized but
// deadlock-free traces.
#include <gtest/gtest.h>

#include <vector>

#include "reference.hpp"
#include "replay/replay.hpp"
#include "trace/trace.hpp"
#include "trace/transform.hpp"
#include "util/rng.hpp"

namespace pals {
namespace {

ReplayConfig default_config() {
  ReplayConfig config;
  config.platform.latency = 1e-5;
  config.platform.bandwidth = 250e6;
  return config;
}

/// Random deadlock-free trace: iterations of random computes, symmetric
/// non-blocking ring exchanges and random collectives.
Trace random_trace(std::uint64_t seed, Rank n_ranks, int iterations) {
  Rng rng(seed);
  Trace t(n_ranks);
  std::vector<std::vector<double>> bursts(
      static_cast<std::size_t>(iterations),
      std::vector<double>(static_cast<std::size_t>(n_ranks)));
  std::vector<CollectiveOp> colls;
  std::vector<Bytes> coll_bytes;
  std::vector<Bytes> ring_bytes(static_cast<std::size_t>(iterations));
  const CollectiveOp ops[] = {CollectiveOp::kBarrier, CollectiveOp::kBcast,
                              CollectiveOp::kAllreduce,
                              CollectiveOp::kAlltoall};
  for (int it = 0; it < iterations; ++it) {
    for (Rank r = 0; r < n_ranks; ++r)
      bursts[static_cast<std::size_t>(it)][static_cast<std::size_t>(r)] =
          rng.uniform(0.0, 0.01);
    colls.push_back(ops[rng.uniform_int(0, 3)]);
    coll_bytes.push_back(rng.uniform_int(0, 1 << 16));
    ring_bytes[static_cast<std::size_t>(it)] = rng.uniform_int(1, 1 << 20);
  }
  for (Rank r = 0; r < n_ranks; ++r) {
    TraceBuilder b(t, r);
    const Rank next = (r + 1) % n_ranks;
    const Rank prev = (r - 1 + n_ranks) % n_ranks;
    for (int it = 0; it < iterations; ++it) {
      b.marker(MarkerKind::kIterationBegin, it);
      b.compute(bursts[static_cast<std::size_t>(it)][static_cast<std::size_t>(
          r)]);
      if (n_ranks > 1) {
        const Bytes bytes = ring_bytes[static_cast<std::size_t>(it)];
        b.irecv(prev, it, bytes, 0);
        b.isend(next, it, bytes, 1);
        b.waitall();
      }
      b.collective(colls[static_cast<std::size_t>(it)],
                   coll_bytes[static_cast<std::size_t>(it)]);
      b.marker(MarkerKind::kIterationEnd, it);
    }
  }
  t.validate();
  return t;
}

class ReplayProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayProperty, CompletesAndTimelineIsValid) {
  const Trace t = random_trace(GetParam(), 8, 5);
  const ReplayResult r = replay(t, default_config());
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_NO_THROW(validate_timeline(r.timeline));
}

TEST_P(ReplayProperty, ComputeTimeIsConserved) {
  const Trace t = random_trace(GetParam(), 8, 5);
  const ReplayResult r = replay(t, default_config());
  for (Rank rank = 0; rank < t.n_ranks(); ++rank) {
    EXPECT_NEAR(r.compute_time[static_cast<std::size_t>(rank)],
                t.computation_time(rank), 1e-9)
        << "rank " << rank;
  }
}

TEST_P(ReplayProperty, MakespanAtLeastCriticalRank) {
  const Trace t = random_trace(GetParam(), 8, 5);
  const ReplayResult r = replay(t, default_config());
  for (Rank rank = 0; rank < t.n_ranks(); ++rank)
    EXPECT_GE(r.makespan, t.computation_time(rank) - 1e-12);
}

TEST_P(ReplayProperty, DeterministicAcrossRuns) {
  const Trace t = random_trace(GetParam(), 8, 5);
  const ReplayResult a = replay(t, default_config());
  const ReplayResult b = replay(t, default_config());
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.timeline, b.timeline);
}

TEST_P(ReplayProperty, ScalingComputeUpNeverShortensExecution) {
  const Trace t = random_trace(GetParam(), 8, 5);
  const ReplayResult base = replay(t, default_config());
  const ReplayResult slowed =
      replay(scale_compute_uniform(t, 1.5), default_config());
  EXPECT_GE(slowed.makespan, base.makespan - 1e-12);
}

TEST_P(ReplayProperty, BusContentionOnlyAddsTime) {
  const Trace t = random_trace(GetParam(), 8, 5);
  const ReplayResult free_buses = replay(t, default_config());
  ReplayConfig contended = default_config();
  contended.platform.buses = 2;
  const ReplayResult limited = replay(t, contended);
  EXPECT_GE(limited.makespan, free_buses.makespan - 1e-12);
}

TEST_P(ReplayProperty, HigherLatencyNeverFaster) {
  const Trace t = random_trace(GetParam(), 8, 5);
  const ReplayResult fast = replay(t, default_config());
  ReplayConfig slow = default_config();
  slow.platform.latency *= 10.0;
  const ReplayResult slowed = replay(t, slow);
  EXPECT_GE(slowed.makespan, fast.makespan - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace pals
