#include "serve/cache.hpp"

#include "obs/metrics.hpp"
#include "trace/event.hpp"

namespace pals {
namespace serve {

std::size_t approx_entry_bytes(const WarmEntry& entry) {
  std::size_t bytes = sizeof(WarmEntry);
  for (Rank rank = 0; rank < entry.trace.n_ranks(); ++rank)
    bytes += entry.trace.events(rank).size() * sizeof(Event) +
             sizeof(std::vector<Event>);
  const ReplayResult& baseline = entry.baseline;
  for (Rank rank = 0; rank < baseline.timeline.n_ranks(); ++rank)
    bytes += baseline.timeline.intervals(rank).size() * sizeof(StateInterval) +
             sizeof(std::vector<StateInterval>);
  bytes += baseline.messages.size() * sizeof(MessageRecord);
  bytes += baseline.collectives.size() * sizeof(CollectiveRecord);
  for (const CollectiveRecord& record : baseline.collectives)
    bytes += record.arrivals.size() * sizeof(std::pair<Rank, Seconds>);
  bytes += (baseline.compute_time.size() + baseline.communication_time.size()) *
           sizeof(Seconds);
  bytes += entry.program.approx_bytes();
  return bytes;
}

WarmCache::WarmCache(std::size_t budget_bytes) : budget_bytes_(budget_bytes) {}

std::shared_ptr<const WarmEntry> WarmCache::get(
    const std::string& key, const std::function<WarmEntry()>& build) {
  std::shared_ptr<Slot> slot;
  bool created = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      it = slots_.emplace(key, std::make_shared<Slot>()).first;
      created = true;
    }
    slot = it->second;
    if (slot->entry != nullptr) {
      // Hit: refresh recency and hand the entry out under the map lock.
      stats_.hits += 1;
      obs::default_registry().counter("serve.cache_hits").add();
      if (slot->resident) lru_.splice(lru_.begin(), lru_, slot->lru);
      return slot->entry;
    }
    if (created) {
      stats_.misses += 1;
      obs::default_registry().counter("serve.cache_misses").add();
    }
  }

  // Build (or wait for the racing builder) outside the map lock.
  std::lock_guard<std::mutex> build_lock(slot->build_mutex);
  if (slot->entry != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.hits += 1;
    obs::default_registry().counter("serve.cache_hits").add();
    if (slot->resident) lru_.splice(lru_.begin(), lru_, slot->lru);
    return slot->entry;
  }
  std::shared_ptr<WarmEntry> entry;
  try {
    entry = std::make_shared<WarmEntry>(build());
  } catch (...) {
    // Drop the key so a later query retries with a clean slate; racing
    // waiters of this attempt see the exception via their own build call
    // finding the slot gone from the map.
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.failed_builds += 1;
    auto it = slots_.find(key);
    if (it != slots_.end() && it->second == slot) slots_.erase(it);
    throw;
  }
  entry->bytes = approx_entry_bytes(*entry);

  std::lock_guard<std::mutex> lock(mutex_);
  slot->entry = entry;
  // The slot may have been evicted (erased from the map) while building;
  // only map-resident slots join the LRU/budget accounting — an orphan
  // entry just serves its waiters and dies with them.
  if (auto it = slots_.find(key); it != slots_.end() && it->second == slot) {
    lru_.push_front(key);
    slot->lru = lru_.begin();
    slot->resident = true;
    resident_bytes_ += entry->bytes;
    obs::default_registry().gauge("serve.cache_bytes").set(
        static_cast<std::int64_t>(resident_bytes_));
    evict_over_budget(key);
  }
  return entry;
}

void WarmCache::evict_over_budget(const std::string& keep) {
  if (budget_bytes_ == 0) return;
  while (resident_bytes_ > budget_bytes_ && !lru_.empty()) {
    // Walk from the least-recent end, skipping the protected key.
    auto victim = lru_.end();
    do {
      --victim;
    } while (*victim == keep && victim != lru_.begin());
    if (*victim == keep) break;  // only the protected entry remains
    auto it = slots_.find(*victim);
    if (it != slots_.end() && it->second->resident) {
      resident_bytes_ -= it->second->entry->bytes;
      slots_.erase(it);
    }
    lru_.erase(victim);
    stats_.evictions += 1;
    obs::default_registry().counter("serve.evictions").add();
  }
  obs::default_registry().gauge("serve.cache_bytes").set(
      static_cast<std::int64_t>(resident_bytes_));
}

WarmCacheStats WarmCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  WarmCacheStats out = stats_;
  out.entries = lru_.size();
  out.resident_bytes = resident_bytes_;
  return out;
}

}  // namespace serve
}  // namespace pals
