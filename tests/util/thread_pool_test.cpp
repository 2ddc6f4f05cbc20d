#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/error.hpp"

namespace pals {
namespace {

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(ThreadPool::resolve_jobs(1), 1);
  EXPECT_EQ(ThreadPool::resolve_jobs(7), 7);
  EXPECT_GE(ThreadPool::resolve_jobs(0), 1);   // hardware concurrency
  EXPECT_GE(ThreadPool::resolve_jobs(-3), 1);  // floored
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleThreadPoolStillRunsEverything) {
  ThreadPool pool(1);
  std::vector<int> out(64, 0);
  pool.parallel_for(out.size(),
                    [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ThreadPool, ParallelForWithZeroIterationsReturnsImmediately) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, PoolIsReusableAcrossParallelFors) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round)
    pool.parallel_for(100, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, FirstExceptionPropagatesAndRemainingIterationsRun) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(200, [&](std::size_t i) {
      ++executed;
      if (i == 17) throw Error("boom from 17");
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  // parallel_for drains the whole range even after a failure.
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPool, SubmitRunsDetachedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, UnevenTaskCostsAllComplete) {
  // Work stealing: one long task early must not serialize the rest.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(64, [&](std::size_t i) {
    volatile long burn = 0;
    const long spins = (i == 0) ? 2000000 : 1000;
    for (long s = 0; s < spins; ++s) burn = burn + s;
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

}  // namespace
}  // namespace pals
