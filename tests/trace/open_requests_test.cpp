#include "trace/open_requests.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "util/rng.hpp"

namespace pals {
namespace {

TEST(OpenRequests, RecyclesSlotsAfterWaits) {
  OpenRequests requests;
  EXPECT_EQ(requests.open(7), 0);
  EXPECT_EQ(requests.open(-3), 1);
  EXPECT_EQ(requests.open(7), -1);  // already open
  EXPECT_EQ(requests.close(7), 0);
  EXPECT_EQ(requests.close(7), -1);  // no longer open
  EXPECT_EQ(requests.open(std::numeric_limits<RequestId>::max()), 0);
  requests.close_all();
  EXPECT_EQ(requests.size(), 0u);
  EXPECT_EQ(requests.open(1), 1);
  EXPECT_EQ(requests.open(2), 0);
  EXPECT_EQ(requests.slots(), 2);  // never more than two open at once
}

// Random opens, Waits and Waitalls over a narrow id range (dense probe
// collisions, so deletions shift runs back) against a std::map reference.
TEST(OpenRequests, MatchesReferenceUnderRandomOperations) {
  Rng rng(2024);
  OpenRequests requests;
  std::map<RequestId, std::int32_t> reference;  // open id -> slot
  std::size_t peak = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<RequestId>(rng.uniform_int(0, 80)) - 40;
    const auto op = rng.uniform_int(0, 99);
    if (op < 55) {
      const std::int32_t slot = requests.open(id);
      if (reference.count(id)) {
        EXPECT_EQ(slot, -1);
      } else {
        ASSERT_GE(slot, 0);
        reference[id] = slot;
      }
    } else if (op < 99) {
      const std::int32_t slot = requests.close(id);
      const auto it = reference.find(id);
      EXPECT_EQ(slot, it == reference.end() ? -1 : it->second);
      if (it != reference.end()) reference.erase(it);
    } else {
      requests.close_all();
      reference.clear();
    }
    ASSERT_EQ(requests.size(), reference.size());
    peak = std::max(peak, reference.size());
    std::set<std::int32_t> slots;
    for (const auto& [open_id, slot] : reference) {
      EXPECT_LT(slot, requests.slots());
      EXPECT_TRUE(slots.insert(slot).second) << "slot " << slot << " shared";
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(requests.slots()), peak);
}

}  // namespace
}  // namespace pals
