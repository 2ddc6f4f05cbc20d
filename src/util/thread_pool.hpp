// Work-stealing thread pool for embarrassingly parallel sweeps.
//
// Each worker owns a deque: it pops its own work LIFO (cache-warm) and
// steals FIFO from the other workers when empty, so uneven task costs —
// scenario replays vary by an order of magnitude — balance automatically.
// Determinism is the caller's job: tasks must write to disjoint,
// pre-allocated slots (see analysis/sweep.cpp) so results are independent
// of execution order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pals {

/// Scheduling counters for observability (obs::record_thread_pool). Steal
/// counts and busy times depend on the OS schedule, so these are host
/// metrics — never part of determinism comparisons.
struct ThreadPoolStats {
  int workers = 0;
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_stolen = 0;       ///< executed tasks taken from a victim
  std::uint64_t busy_ns = 0;            ///< summed task wall-clock, all workers
  std::vector<std::uint64_t> worker_busy_ns;  ///< per-worker task wall-clock
};

class ThreadPool {
public:
  /// Spawns `threads` workers; 0 picks the hardware concurrency.
  explicit ThreadPool(int threads = 0);
  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueue one task. Thread-safe. Tasks must not throw; use
  /// parallel_for for exception propagation.
  void submit(std::function<void()> task);

  /// Run body(0) .. body(n-1) across the pool and block until all have
  /// finished. The first exception thrown by any invocation is rethrown
  /// here (remaining iterations still run to completion). Must not be
  /// called from inside a pool task.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Worker count a `jobs` option resolves to (0 = hardware concurrency,
  /// floored at 1).
  static int resolve_jobs(int jobs);

  /// Snapshot of the scheduling counters. Thread-safe; callable while
  /// tasks run (counters are relaxed atomics, values may lag in-flight
  /// work by one task; never behind a parallel_for that has returned).
  ThreadPoolStats stats() const;

private:
  /// A queued task. `done`, if set, runs after the worker has counted the
  /// task, so whoever it wakes sees the task in stats().
  struct Task {
    std::function<void()> run, done;
  };

  struct Worker {
    std::mutex mutex;
    std::deque<Task> tasks;
    std::atomic<std::uint64_t> busy_ns{0};
  };

  void enqueue(Task task);
  void worker_loop(std::size_t self);
  /// Pop from own queue (back) or steal from a victim (front); sets
  /// `stolen` when the task came from another worker's queue.
  Task find_task(std::size_t self, bool& stolen);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  /// Guards pending_/stop_ and backs the sleep/wake protocol.
  std::mutex sleep_mutex_;
  std::condition_variable wake_;
  std::size_t pending_ = 0;  ///< queued-but-not-started tasks
  bool stop_ = false;

  std::size_t next_queue_ = 0;  ///< round-robin submit target

  std::atomic<std::uint64_t> tasks_submitted_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> tasks_stolen_{0};
};

}  // namespace pals
