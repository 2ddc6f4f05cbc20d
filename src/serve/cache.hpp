// Memory-budgeted warm cache of parsed traces + memoized baseline replays.
//
// The serve daemon's whole point is answering queries against warm state:
// building a workload trace and replaying its baseline dominate a query's
// cost, and both depend only on (workload, platform, fault plan) — never
// on the gear/controller/beta axes — so they are shared across every
// query of the same baseline key (serve/protocol.hpp
// Request::baseline_key).
//
// A daemon that lives for days cannot let that cache grow without bound:
// entries are LRU-evicted once the approximate resident bytes exceed the
// --cache-bytes budget (observable as the serve.evictions counter and
// the serve.cache_bytes gauge). Entries are handed out as shared_ptr, so
// an eviction never invalidates an entry a worker is still replaying
// against — memory is reclaimed when the last in-flight query drops it.
//
// Concurrency: a global map lock plus a per-entry build mutex, so two
// queries racing on a cold key build it once (the second blocks until
// the first finishes) while builds of *different* keys proceed in
// parallel and never hold the map lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "replay/replay.hpp"
#include "trace/trace.hpp"

namespace pals {
namespace serve {

/// One warm entry: the parsed trace, its baseline replay and the replay
/// program every query of the entry replays from. QueryEngine's entries
/// (make_warm_entry, serve/query.hpp) drop the baseline's message and
/// collective logs, which no served row reads.
struct WarmEntry {
  Trace trace;
  ReplayResult baseline;
  ReplayProgram program;
  std::size_t bytes = 0;  ///< approximate resident footprint (see below)
};

/// Approximate resident bytes of an entry: events, timeline intervals,
/// message/collective records, the replay program and per-rank vectors
/// at sizeof() cost.
/// Deliberately an estimate — the budget is an ops guardrail, not an
/// allocator ledger.
std::size_t approx_entry_bytes(const WarmEntry& entry);

struct WarmCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t failed_builds = 0;
  std::size_t entries = 0;
  std::size_t resident_bytes = 0;
};

class WarmCache {
 public:
  /// `budget_bytes` caps the summed WarmEntry::bytes; 0 = unlimited. A
  /// single entry larger than the whole budget is still admitted (the
  /// query must be answerable) — everything else is evicted around it.
  explicit WarmCache(std::size_t budget_bytes);

  WarmCache(const WarmCache&) = delete;
  WarmCache& operator=(const WarmCache&) = delete;

  /// Return the entry under `key`, building it via `build` on a miss.
  /// `build` runs outside the map lock (concurrent queries on other keys
  /// are not blocked) but inside the entry's own lock (racing queries on
  /// the same key build once). A throwing build propagates to every
  /// waiter of that attempt and leaves the cache without the key, so a
  /// later query retries cleanly (e.g. a deadline that expired during
  /// the baseline replay must not poison the key).
  std::shared_ptr<const WarmEntry> get(
      const std::string& key, const std::function<WarmEntry()>& build);

  WarmCacheStats stats() const;
  std::size_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Slot {
    std::mutex build_mutex;
    std::shared_ptr<const WarmEntry> entry;  ///< null while building
    std::list<std::string>::iterator lru;    ///< valid once entry is set
    bool resident = false;
  };

  /// Pre: mutex_ held. Evict LRU entries until the budget holds (never
  /// the just-inserted `keep`).
  void evict_over_budget(const std::string& keep);

  const std::size_t budget_bytes_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  std::list<std::string> lru_;  ///< most-recent at the front
  WarmCacheStats stats_;
  std::size_t resident_bytes_ = 0;
};

}  // namespace serve
}  // namespace pals
