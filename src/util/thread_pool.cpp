#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "util/error.hpp"

namespace pals {

int ThreadPool::resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int threads) {
  const int n = resolve_jobs(threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  enqueue(Task{std::move(task), {}});
}

void ThreadPool::enqueue(Task task) {
  std::size_t target;
  {
    // pending_ is bumped before the task becomes stealable so a worker can
    // never decrement it below zero between push and wake-up.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    ++pending_;
    target = next_queue_++ % workers_.size();
  }
  {
    Worker& w = *workers_[target];
    std::lock_guard<std::mutex> lock(w.mutex);
    w.tasks.push_back(std::move(task));
  }
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  wake_.notify_one();
}

ThreadPool::Task ThreadPool::find_task(std::size_t self, bool& stolen) {
  stolen = false;
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      Task task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return task;
    }
  }
  for (std::size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(self + k) % workers_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      Task task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      stolen = true;
      return task;
    }
  }
  return {};
}

void ThreadPool::worker_loop(std::size_t self) {
  while (true) {
    bool stolen = false;
    Task task = find_task(self, stolen);
    if (!task.run) {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      wake_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (stop_ && pending_ == 0) return;
      continue;  // retry the queues; another worker may have raced us
    }
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      --pending_;
    }
    if (stolen) tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
    const auto begin = std::chrono::steady_clock::now();
    task.run();
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    workers_[self]->busy_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        std::memory_order_relaxed);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    if (task.done) task.done();
  }
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats s;
  s.workers = size();
  s.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  s.worker_busy_ns.reserve(workers_.size());
  for (const auto& w : workers_) {
    const std::uint64_t ns = w->busy_ns.load(std::memory_order_relaxed);
    s.worker_busy_ns.push_back(ns);
    s.busy_ns += ns;
  }
  return s;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  struct Sync {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error;
  };
  Sync sync;
  sync.remaining = n;
  for (std::size_t i = 0; i < n; ++i) {
    enqueue(Task{[&sync, &body, i] {
                   try {
                     body(i);
                   } catch (...) {
                     std::lock_guard<std::mutex> lock(sync.mutex);
                     if (!sync.error) sync.error = std::current_exception();
                   }
                 },
                 [&sync] {
                   std::lock_guard<std::mutex> lock(sync.mutex);
                   if (--sync.remaining == 0) sync.done.notify_all();
                 }});
  }
  std::unique_lock<std::mutex> lock(sync.mutex);
  sync.done.wait(lock, [&sync] { return sync.remaining == 0; });
  if (sync.error) std::rethrow_exception(sync.error);
}

}  // namespace pals
