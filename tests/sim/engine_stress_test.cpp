// Stress and scale tests for the DES core and the replay simulator.
#include <gtest/gtest.h>

#include <vector>

#include "reference.hpp"
#include "replay/replay.hpp"
#include "simcore/engine.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace pals {
namespace {

TEST(EngineStress, HundredThousandEventsInOrder) {
  SimEngine engine;
  Rng rng(77);
  std::vector<Seconds> fire_times;
  fire_times.reserve(100000);
  for (Rank i = 0; i < 100000; ++i)
    engine.schedule_at(rng.uniform(0.0, 1000.0), i);
  engine.run([&](Rank) { fire_times.push_back(engine.now()); });
  ASSERT_EQ(fire_times.size(), 100000u);
  for (std::size_t i = 1; i < fire_times.size(); ++i)
    ASSERT_LE(fire_times[i - 1], fire_times[i]);
  EXPECT_EQ(engine.executed_events(), 100000u);
}

TEST(EngineStress, CascadingSchedulesTerminate) {
  SimEngine engine;
  int depth = 0;
  engine.schedule_at(0.0, 0);
  engine.run([&](Rank) {
    if (++depth < 10000) engine.schedule_at(engine.now() + 0.001, 0);
  });
  EXPECT_EQ(depth, 10000);
  EXPECT_NEAR(engine.now(), 9.999, 1e-9);
}

TEST(ReplayStress, LargeRandomRingCompletes) {
  // 256 ranks x 20 iterations of nonblocking ring exchange + allreduce:
  // ~46k events through the full matching machinery.
  constexpr Rank kRanks = 256;
  constexpr int kIterations = 20;
  Rng rng(5);
  std::vector<double> weights(kRanks);
  for (auto& w : weights) w = rng.uniform(0.2, 1.0);
  Trace t(kRanks);
  for (Rank r = 0; r < kRanks; ++r) {
    TraceBuilder b(t, r);
    const Rank next = (r + 1) % kRanks;
    const Rank prev = (r - 1 + kRanks) % kRanks;
    for (int i = 0; i < kIterations; ++i) {
      b.marker(MarkerKind::kIterationBegin, i)
          .compute(0.001 * weights[static_cast<std::size_t>(r)]);
      b.irecv(prev, i, 65536, 0).isend(next, i, 65536, 1).waitall();
      b.collective(CollectiveOp::kAllreduce, 8);
      b.marker(MarkerKind::kIterationEnd, i);
    }
  }
  const ReplayResult r = replay(t, ReplayConfig{});
  EXPECT_EQ(r.point_to_point_messages,
            static_cast<std::size_t>(kRanks) * kIterations);
  EXPECT_EQ(r.collective_operations, static_cast<std::size_t>(kIterations));
  EXPECT_NO_THROW(validate_timeline(r.timeline));
  EXPECT_EQ(r.messages.size(), r.point_to_point_messages);
}

TEST(ReplayStress, ContendedLinksAndBusesStillComplete) {
  constexpr Rank kRanks = 64;
  Trace t(kRanks);
  // Everyone sends a rendezvous message to rank 0.
  {
    TraceBuilder b(t, 0);
    for (Rank s = 1; s < kRanks; ++s) b.irecv(s, 0, 1 << 20, s);
    b.waitall();
  }
  for (Rank s = 1; s < kRanks; ++s) TraceBuilder(t, s).send(0, 0, 1 << 20);
  ReplayConfig config;
  config.platform.buses = 4;
  config.platform.links_per_node = 1;
  const ReplayResult r = replay(t, config);
  EXPECT_GT(r.link_contention_delay, 0.0);
  EXPECT_NO_THROW(validate_timeline(r.timeline));
}

}  // namespace
}  // namespace pals
