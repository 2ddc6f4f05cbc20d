// Per-rank state timelines — the Paraver-view of a (simulated) execution.
//
// The replay simulator emits, for every rank, a gap-free sequence of state
// intervals. The power model integrates energy over these intervals (CPU
// activity differs between computation and communication/wait states); the
// analysis layer derives load balance, parallel efficiency and Gantt
// visualizations from them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "trace/types.hpp"

namespace pals {

/// What a rank's CPU is doing during an interval.
enum class RankState {
  kCompute,      ///< executing a computation burst
  kSend,         ///< inside a (blocking) send: overhead + transfer/stall
  kRecv,         ///< blocked in a receive
  kWait,         ///< blocked in Wait/Waitall
  kCollective,   ///< inside a collective operation
  kIdle,         ///< finished its stream, waiting for the application end
};

std::string to_string(RankState state);

struct StateInterval {
  Seconds begin = 0.0;
  Seconds end = 0.0;
  RankState state = RankState::kIdle;
  std::int32_t phase = -1;      ///< phase label of the compute burst, else -1
  /// Iteration the interval belongs to (from iteration markers), -1 when
  /// the trace is unmarked or the interval precedes the first iteration.
  /// Lets the power layer charge per-iteration DVFS schedules exactly.
  std::int32_t iteration = -1;

  Seconds duration() const { return end - begin; }
  bool operator==(const StateInterval&) const = default;
};

/// Gap-free per-rank interval sequences over [0, makespan].
class Timeline {
public:
  Timeline() = default;
  explicit Timeline(Rank n_ranks);

  Rank n_ranks() const { return static_cast<Rank>(lanes_.size()); }

  std::span<const StateInterval> intervals(Rank rank) const;

  /// Append an interval to `rank`'s lane; must start where the lane ends.
  void append(Rank rank, StateInterval interval);

  /// End time of the longest lane (total simulated execution time).
  Seconds makespan() const;

  Seconds state_time(Rank rank, RankState state) const;

  bool operator==(const Timeline&) const = default;

private:
  std::vector<std::vector<StateInterval>> lanes_;
};

/// Timeline::append's rule for an interval of `rank`'s lane, shared with
/// the replay's in-pass merger. `lane_end` is where the lane ends, null
/// while it is empty. Throws unless the interval is finite, does not end
/// before it begins and starts where the lane ends (within rounding);
/// then snaps its start onto the lane end and returns false when it has
/// no width left (zero-width intervals carry nothing).
bool admit_interval(Rank rank, StateInterval& interval,
                    const Seconds* lane_end);

/// Checks the first interval of `rank`'s lane: throws when it starts
/// before 0 (beyond rounding).
void check_lane_start(Rank rank, Seconds begin);

/// Text serialization (.palsv): "rank begin end state [phase [iteration]]"
/// per line.
void write_timeline(const Timeline& timeline, std::ostream& out);

}  // namespace pals
