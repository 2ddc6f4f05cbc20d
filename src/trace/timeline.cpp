#include "trace/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/error.hpp"

namespace pals {
namespace {

// Tolerance for "lane continues where it left off" checks; replay arithmetic
// is pure addition so drift is tiny, but serialization rounds.
constexpr double kTimeEps = 1e-9;

}  // namespace

std::string to_string(RankState state) {
  switch (state) {
    case RankState::kCompute: return "compute";
    case RankState::kSend: return "send";
    case RankState::kRecv: return "recv";
    case RankState::kWait: return "wait";
    case RankState::kCollective: return "collective";
    case RankState::kIdle: return "idle";
  }
  throw Error("invalid RankState enum value");
}

Timeline::Timeline(Rank n_ranks) {
  PALS_CHECK_MSG(n_ranks > 0, "timeline needs at least one rank");
  lanes_.resize(static_cast<std::size_t>(n_ranks));
}

std::span<const StateInterval> Timeline::intervals(Rank rank) const {
  PALS_CHECK_MSG(rank >= 0 && rank < n_ranks(),
                 "rank " << rank << " out of range");
  return lanes_[static_cast<std::size_t>(rank)];
}

bool admit_interval(Rank rank, StateInterval& interval,
                    const Seconds* lane_end) {
  PALS_CHECK_MSG(std::isfinite(interval.begin) && std::isfinite(interval.end),
                 "rank " << rank << ": non-finite interval ["
                         << interval.begin << ", " << interval.end << ")");
  PALS_CHECK_MSG(interval.end >= interval.begin,
                 "interval ends (" << interval.end << ") before it begins ("
                                   << interval.begin << ")");
  if (lane_end != nullptr) {
    PALS_CHECK_MSG(std::abs(interval.begin - *lane_end) <= kTimeEps,
                   "rank " << rank << ": interval starts at " << interval.begin
                           << " but lane ends at " << *lane_end);
    interval.begin = *lane_end;  // remove rounding drift
    if (interval.end < interval.begin) interval.end = interval.begin;
  }
  return interval.duration() != 0.0;
}

void check_lane_start(Rank rank, Seconds begin) {
  PALS_CHECK_MSG(begin >= -kTimeEps,
                 "rank " << rank << ": timeline starts before 0");
}

void Timeline::append(Rank rank, StateInterval interval) {
  PALS_CHECK_MSG(rank >= 0 && rank < n_ranks(),
                 "rank " << rank << " out of range");
  auto& lane = lanes_[static_cast<std::size_t>(rank)];
  if (admit_interval(rank, interval,
                     lane.empty() ? nullptr : &lane.back().end))
    lane.push_back(interval);
}

Seconds Timeline::makespan() const {
  Seconds t = 0.0;
  for (const auto& lane : lanes_)
    if (!lane.empty()) t = std::max(t, lane.back().end);
  return t;
}

Seconds Timeline::state_time(Rank rank, RankState state) const {
  Seconds total = 0.0;
  for (const StateInterval& iv : intervals(rank))
    if (iv.state == state) total += iv.duration();
  return total;
}

void write_timeline(const Timeline& timeline, std::ostream& out) {
  out << "# pals-timeline v1\n";
  out << "ranks " << timeline.n_ranks() << '\n';
  out.precision(17);
  for (Rank r = 0; r < timeline.n_ranks(); ++r) {
    for (const StateInterval& iv : timeline.intervals(r)) {
      out << r << ' ' << iv.begin << ' ' << iv.end << ' '
          << to_string(iv.state);
      // Optional trailing fields: phase, then iteration (phase is emitted
      // as -1 when only the iteration is labelled).
      if (iv.phase >= 0 || iv.iteration >= 0) out << ' ' << iv.phase;
      if (iv.iteration >= 0) out << ' ' << iv.iteration;
      out << '\n';
    }
  }
}

}  // namespace pals
