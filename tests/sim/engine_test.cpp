#include "simcore/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace pals {
namespace {

TEST(SimEngine, ExecutesInTimeOrder) {
  SimEngine engine;
  std::vector<Rank> order;
  engine.schedule_at(2.0, 2);
  engine.schedule_at(1.0, 1);
  engine.schedule_at(3.0, 3);
  engine.run([&](Rank r) { order.push_back(r); });
  EXPECT_EQ(order, (std::vector<Rank>{1, 2, 3}));
}

TEST(SimEngine, TiesBreakInSchedulingOrder) {
  SimEngine engine;
  std::vector<Rank> order;
  for (Rank r = 0; r < 5; ++r) engine.schedule_at(1.0, r);
  engine.run([&](Rank r) { order.push_back(r); });
  EXPECT_EQ(order, (std::vector<Rank>{0, 1, 2, 3, 4}));
}

TEST(SimEngine, NowTracksCurrentEvent) {
  SimEngine engine;
  Seconds seen = -1.0;
  engine.schedule_at(4.5, 0);
  engine.run([&](Rank) { seen = engine.now(); });
  EXPECT_DOUBLE_EQ(seen, 4.5);
  EXPECT_DOUBLE_EQ(engine.now(), 4.5);
}

TEST(SimEngine, CallbacksMayScheduleMore) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(1.0, 0);
  const Seconds end = engine.run([&](Rank r) {
    ++fired;
    if (r == 0) engine.schedule_at(engine.now() + 1.0, 1);
  });
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(end, 2.0);
}

TEST(SimEngine, RejectsSchedulingInThePast) {
  SimEngine engine;
  engine.schedule_at(5.0, 0);
  engine.run([&](Rank) { EXPECT_THROW(engine.schedule_at(4.0, 1), Error); });
  EXPECT_TRUE(engine.empty());
}

TEST(SimEngine, CountsExecutedEvents) {
  SimEngine engine;
  for (Rank r = 0; r < 10; ++r) engine.schedule_at(r, r);
  engine.run([](Rank) {});
  EXPECT_EQ(engine.executed_events(), 10u);
}

TEST(SimEngine, EmptyRunReturnsZero) {
  SimEngine engine;
  EXPECT_DOUBLE_EQ(engine.run([](Rank) {}), 0.0);
  EXPECT_TRUE(engine.empty());
}

}  // namespace
}  // namespace pals
