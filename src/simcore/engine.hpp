// Discrete-event simulation engine.
//
// A minimal, deterministic DES core: a binary heap of typed (time, seq,
// rank) items, executed in (time, insertion-order) order. An item only
// says "wake this rank"; run(handler) pops items and calls handler(rank),
// which is how the replay simulator drives its per-rank state machines.
// No callback objects are stored, so scheduling an event allocates
// nothing beyond the heap's high-water mark.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "trace/types.hpp"
#include "util/error.hpp"

namespace pals {

class SimEngine {
public:
  /// Current simulated time; only meaningful inside handlers and after run().
  Seconds now() const { return now_; }

  /// Schedule a wake-up of `rank` at absolute time `when` (>= now()).
  /// Events with equal time run in scheduling order (stable).
  void schedule_at(Seconds when, Rank rank) {
    PALS_CHECK_MSG(when >= now_, "cannot schedule event in the past (when="
                                     << when << ", now=" << now_ << ")");
    heap_.push_back(Item{when, next_seq_++, rank});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    if (heap_.size() > max_queue_depth_) max_queue_depth_ = heap_.size();
  }

  /// Abort guard: run() throws pals::Error ("simulated event limit
  /// exceeded ...") once more than `limit` events have executed (0 =
  /// unlimited, the default). Converts runaway simulations into
  /// structured failures the fault-tolerant sweep can classify as
  /// timeouts; the limit is on deterministic simulated work, so hitting
  /// it is reproducible across hosts and thread counts.
  void set_event_limit(std::size_t limit) { event_limit_ = limit; }
  std::size_t event_limit() const { return event_limit_; }

  /// Wall-clock watchdog: run() throws pals::Error ("wall-clock watchdog
  /// expired ...") once more than `seconds` of host time has elapsed
  /// since the run started (0 = disabled, the default).
  /// Unlike the event limit this measures *host* time, so it is
  /// inherently nondeterministic — it exists to turn a wedged or
  /// pathologically slow simulation into a structured, classifiable
  /// failure (fault::ErrorClass::kTimeout) instead of a hung process.
  /// The error message carries only the configured limit, never the
  /// elapsed time, so quarantine records stay byte-stable.
  void set_wall_limit(double seconds) { wall_limit_seconds_ = seconds; }
  double wall_limit() const { return wall_limit_seconds_; }

  /// Run until the event queue is empty, calling `handler(rank)` for each
  /// event in order; the handler may schedule more. Returns the final time.
  template <typename Handler>
  Seconds run(Handler&& handler) {
    arm_wall_limit();
    while (!heap_.empty()) {
      if (event_limit_ != 0 && executed_ >= event_limit_)
        throw_event_limit();
      if (wall_limit_seconds_ > 0.0) check_wall_limit();
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Item item = heap_.back();
      heap_.pop_back();
      now_ = item.when;
      ++executed_;
      handler(item.rank);
    }
    return now_;
  }

  std::size_t executed_events() const { return executed_; }
  /// Largest number of pending events observed (queue-depth high-water
  /// mark); deterministic — simulated scheduling has no host concurrency.
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  bool empty() const { return heap_.empty(); }

private:
  struct Item {
    Seconds when;
    std::uint64_t seq;
    Rank rank;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  [[noreturn]] void throw_event_limit() const;
  /// Throws when the armed wall-clock watchdog has expired.
  void check_wall_limit() const;
  void arm_wall_limit();

  std::vector<Item> heap_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t max_queue_depth_ = 0;
  std::size_t event_limit_ = 0;
  double wall_limit_seconds_ = 0.0;
  std::chrono::steady_clock::time_point wall_start_{};
};

}  // namespace pals
