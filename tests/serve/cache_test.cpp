// serve/cache.hpp: the memory-budgeted warm cache — hit/miss accounting,
// LRU eviction under a byte budget, the no-poison contract for failing
// builds, single-build coalescing under concurrency, survival of
// handed-out entries across their own eviction, and the contents and
// footprint of the entry a query builds.
#include "serve/cache.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "serve/query.hpp"
#include "util/error.hpp"

namespace pals {
namespace serve {
namespace {

/// An entry whose approx_entry_bytes is dominated by `messages` records —
/// no trace machinery needed to exercise the byte budget.
WarmEntry entry_with_messages(std::size_t count) {
  WarmEntry entry;
  entry.baseline.messages.resize(count);
  return entry;
}

std::size_t bytes_of(std::size_t count) {
  return approx_entry_bytes(entry_with_messages(count));
}

TEST(WarmCache, MissBuildsOnceThenHits) {
  WarmCache cache(0);
  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    return entry_with_messages(4);
  };
  const auto first = cache.get("k", build);
  const auto second = cache.get("k", build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());
  const WarmCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, bytes_of(4));
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(WarmCache, EvictsLeastRecentlyUsedOverBudget) {
  // Budget fits two message-heavy entries but not three.
  WarmCache cache(2 * bytes_of(100) + bytes_of(100) / 2);
  const auto build = [] { return entry_with_messages(100); };
  cache.get("a", build);
  cache.get("b", build);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.get("a", build);  // refresh: "b" is now the LRU victim
  cache.get("c", build);
  WarmCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.resident_bytes, cache.budget_bytes());
  // "a" survived (it was refreshed), "b" was evicted and rebuilds.
  std::size_t rebuilds = 0;
  cache.get("a", [&rebuilds] {
    ++rebuilds;
    return entry_with_messages(100);
  });
  EXPECT_EQ(rebuilds, 0u);
  cache.get("b", [&rebuilds] {
    ++rebuilds;
    return entry_with_messages(100);
  });
  EXPECT_EQ(rebuilds, 1u);
}

TEST(WarmCache, SingleEntryLargerThanBudgetIsStillAdmitted) {
  // The query must be answerable even when one baseline exceeds the whole
  // budget; everything else is evicted around it.
  WarmCache cache(bytes_of(10));
  const auto huge = cache.get("huge", [] { return entry_with_messages(500); });
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
  // The next entry evicts the over-budget resident, not itself.
  cache.get("small", [] { return entry_with_messages(10); });
  const WarmCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // The handed-out shared_ptr outlives the eviction.
  EXPECT_EQ(huge->baseline.messages.size(), 500u);
}

TEST(WarmCache, ZeroBudgetMeansUnlimited) {
  WarmCache cache(0);
  for (int i = 0; i < 16; ++i)
    cache.get("k" + std::to_string(i), [] { return entry_with_messages(50); });
  const WarmCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 16u);
}

TEST(WarmCache, FailedBuildDoesNotPoisonTheKey) {
  WarmCache cache(0);
  EXPECT_THROW(
      cache.get("k", []() -> WarmEntry { throw Error("deadline expired"); }),
      Error);
  EXPECT_EQ(cache.stats().failed_builds, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The next query retries with a clean slate and succeeds.
  const auto entry = cache.get("k", [] { return entry_with_messages(3); });
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(WarmCache, RacingColdQueriesBuildExactlyOnce) {
  WarmCache cache(0);
  std::atomic<int> builds{0};
  const auto build = [&builds] {
    builds.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return entry_with_messages(8);
  };
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const WarmEntry>> results(4);
  for (int i = 0; i < 4; ++i)
    threads.emplace_back(
        [&cache, &build, &results, i] {
          results[static_cast<std::size_t>(i)] = cache.get("k", build);
        });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& result : results) EXPECT_EQ(result.get(), results[0].get());
}

TEST(WarmCache, BuildsOfDifferentKeysProceedInParallel) {
  WarmCache cache(0);
  // If builds serialized on a global lock this would take >= 400ms; in
  // parallel it takes ~100ms. Assert the strong half (both complete and
  // the cache holds both), plus a generous wall bound to catch a full
  // serialization regression without being flaky.
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&cache, i] {
      cache.get("k" + std::to_string(i), [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return entry_with_messages(2);
      });
    });
  for (std::thread& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_LT(elapsed, 0.35) << "cold builds appear to serialize";
}

TEST(ApproxEntryBytes, GrowsWithPayload) {
  EXPECT_GT(bytes_of(100), bytes_of(1));
  EXPECT_GE(bytes_of(0), sizeof(WarmEntry));
}

TEST(ApproxEntryBytes, CountsTheReplayProgram) {
  WarmEntry entry;
  entry.trace = resolve_workload("cg:8:0.9:2", 2).build();
  const std::size_t without = approx_entry_bytes(entry);
  entry.program = ReplayProgram(entry.trace);
  EXPECT_GT(entry.program.approx_bytes(), 0u);
  EXPECT_EQ(approx_entry_bytes(entry), without + entry.program.approx_bytes());
}

TEST(WarmCache, QueryEntryHoldsTheProgramNotTheLogs) {
  // The entry a query builds carries the compiled program and drops the
  // baseline's message and collective logs, so it is smaller than the
  // full baseline replay it replaces.
  WarmCache cache(0);
  QueryEngine engine(QueryEngineOptions{}, cache);
  Request request;
  request.workload = "cg:8:0.9:2";
  const WorkloadRef ref = resolve_workload(request.workload, 2);
  request.iterations = 2;
  engine.execute(request, 0.0);
  const auto entry = cache.get(request.baseline_key(ref.key), []() -> WarmEntry {
    throw Error("the query should have built the entry");
  });
  EXPECT_TRUE(entry->program.matches(entry->trace));
  EXPECT_TRUE(entry->baseline.messages.empty());
  EXPECT_TRUE(entry->baseline.collectives.empty());
  EXPECT_GT(entry->baseline.timeline.n_ranks(), 0);

  WarmEntry full;
  full.trace = entry->trace;
  full.baseline = replay(full.trace, ReplayConfig{});
  ASSERT_FALSE(full.baseline.messages.empty());
  EXPECT_LT(entry->bytes, approx_entry_bytes(full));
}

}  // namespace
}  // namespace serve
}  // namespace pals
