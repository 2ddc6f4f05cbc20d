// The open non-blocking requests of one rank, in stream order.
//
// OpenRequests maps each posted, not yet waited request id to a dense
// slot. Slots freed by Wait/Waitall are reused, so a rank needs as many
// slots as it ever has requests open at once, whatever int32 ids its trace
// uses. The table holds only the open ids (open addressing, linear
// probing, backward-shift deletion), so it stays small and allocation-free
// once warm. Trace::validate checks the request discipline with it; the
// replay's compile pass assigns every Isend, Irecv and Wait its slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/types.hpp"

namespace pals {

class OpenRequests {
public:
  /// Open `id`; returns its slot, or -1 when `id` is already open.
  std::int32_t open(RequestId id) {
    if (2 * (open_ + 1) > table_.size()) grow();
    const std::size_t pos = find(id);
    if (table_[pos].slot >= 0) return -1;
    std::int32_t slot = slots_;
    if (free_.empty()) {
      ++slots_;
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    table_[pos] = Entry{id, slot};
    ++open_;
    return slot;
  }

  /// Close `id` (a Wait); returns the slot it held, or -1 when `id` is
  /// not open.
  std::int32_t close(RequestId id) {
    if (open_ == 0) return -1;
    const std::size_t pos = find(id);
    const std::int32_t slot = table_[pos].slot;
    if (slot < 0) return -1;
    erase(pos);
    free_.push_back(slot);
    --open_;
    return slot;
  }

  /// Close every open request (a Waitall).
  void close_all() {
    if (open_ == 0) return;
    for (Entry& e : table_) {
      if (e.slot < 0) continue;
      free_.push_back(e.slot);
      e.slot = -1;
    }
    open_ = 0;
  }

  /// Requests open now.
  std::size_t size() const { return open_; }
  /// Slots handed out so far: the peak number of open requests.
  std::int32_t slots() const { return slots_; }

private:
  struct Entry {
    RequestId id = 0;
    std::int32_t slot = -1;  ///< -1: empty
  };

  std::size_t home(RequestId id) const {
    const std::uint64_t h =
        static_cast<std::uint32_t>(id) * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(h >> 32) & (table_.size() - 1);
  }

  /// Position of `id`, or of the empty entry that ends its probe run.
  std::size_t find(RequestId id) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = home(id);
    while (table_[i].slot >= 0 && table_[i].id != id) i = (i + 1) & mask;
    return i;
  }

  /// Empty position `i`, shifting later entries of the probe run back so
  /// every open id stays reachable from its home position.
  void erase(std::size_t i) {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t j = (i + 1) & mask; table_[j].slot >= 0;
         j = (j + 1) & mask) {
      const std::size_t h = home(table_[j].id);
      // Entry j may fill the hole unless its home lies in (i, j].
      const bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
      if (stays) continue;
      table_[i] = table_[j];
      i = j;
    }
    table_[i].slot = -1;
  }

  void grow() {
    std::vector<Entry> old(table_.empty() ? 16 : 2 * table_.size());
    old.swap(table_);
    for (const Entry& e : old)
      if (e.slot >= 0) table_[find(e.id)] = e;
  }

  std::vector<Entry> table_;  ///< power-of-two size, load <= 1/2
  std::vector<std::int32_t> free_;
  std::size_t open_ = 0;
  std::int32_t slots_ = 0;
};

}  // namespace pals
