#include "trace/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "util/error.hpp"
#include "util/strings.hpp"

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

RankState parse_rank_state(const std::string& name) {
  if (name == "compute") return RankState::kCompute;
  if (name == "send") return RankState::kSend;
  if (name == "recv") return RankState::kRecv;
  if (name == "wait") return RankState::kWait;
  if (name == "collective") return RankState::kCollective;
  if (name == "idle") return RankState::kIdle;
  throw Error("unknown rank state: " + name);
}

bool is_communication_state(RankState state) {
  return state != RankState::kCompute;
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

Seconds Timeline::compute_time(Rank rank) const {
  return state_time(rank, RankState::kCompute);
}

Seconds Timeline::communication_time(Rank rank) const {
  Seconds total = 0.0;
  for (const StateInterval& iv : intervals(rank))
    if (iv.state != RankState::kCompute) total += iv.duration();
  return total;
}

Seconds Timeline::compute_time(Rank rank, std::int32_t phase) const {
  Seconds total = 0.0;
  for (const StateInterval& iv : intervals(rank))
    if (iv.state == RankState::kCompute && iv.phase == phase)
      total += iv.duration();
  return total;
}

std::vector<Seconds> Timeline::compute_times() const {
  std::vector<Seconds> out;
  out.reserve(lanes_.size());
  for (Rank r = 0; r < n_ranks(); ++r) out.push_back(compute_time(r));
  return out;
}

Seconds Timeline::iteration_compute_time(Rank rank,
                                         std::int32_t iteration) const {
  Seconds total = 0.0;
  for (const StateInterval& iv : intervals(rank))
    if (iv.state == RankState::kCompute && iv.iteration == iteration)
      total += iv.duration();
  return total;
}

std::int32_t Timeline::max_iteration() const {
  std::int32_t max_iter = -1;
  for (const auto& lane : lanes_)
    for (const StateInterval& iv : lane)
      max_iter = std::max(max_iter, iv.iteration);
  return max_iter;
}

void Timeline::validate() const {
  for (Rank r = 0; r < n_ranks(); ++r) {
    Seconds cursor = 0.0;
    bool first = true;
    for (const StateInterval& iv : intervals(r)) {
      PALS_CHECK_MSG(std::isfinite(iv.begin) && std::isfinite(iv.end),
                     "rank " << r << ": non-finite interval bound");
      PALS_CHECK_MSG(iv.end >= iv.begin,
                     "rank " << r << ": negative-length interval");
      if (first) {
        check_lane_start(r, iv.begin);
        first = false;
      } else {
        PALS_CHECK_MSG(std::abs(iv.begin - cursor) <= kTimeEps,
                       "rank " << r << ": gap or overlap at t=" << iv.begin);
      }
      cursor = iv.end;
    }
  }
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

Timeline read_timeline(std::istream& in) {
  std::string line;
  Timeline timeline;
  bool magic_seen = false;
  bool ranks_seen = false;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (!magic_seen) {
      PALS_CHECK_MSG(trimmed == "# pals-timeline v1",
                     "timeline line " << line_no << ": bad magic");
      magic_seen = true;
      continue;
    }
    if (trimmed.front() == '#') continue;
    const auto tok = split_ws(trimmed);
    if (tok[0] == "ranks") {
      PALS_CHECK_MSG(tok.size() == 2, "timeline line " << line_no
                                                       << ": bad ranks line");
      timeline = Timeline(static_cast<Rank>(parse_int(tok[1])));
      ranks_seen = true;
      continue;
    }
    PALS_CHECK_MSG(ranks_seen, "timeline line " << line_no
                                                << ": record before ranks");
    PALS_CHECK_MSG(tok.size() >= 4 && tok.size() <= 6,
                   "timeline line " << line_no << ": expected 4-6 fields");
    StateInterval iv;
    const Rank rank = static_cast<Rank>(parse_int(tok[0]));
    iv.begin = parse_double(tok[1]);
    iv.end = parse_double(tok[2]);
    iv.state = parse_rank_state(tok[3]);
    if (tok.size() >= 5) iv.phase = static_cast<std::int32_t>(parse_int(tok[4]));
    if (tok.size() == 6)
      iv.iteration = static_cast<std::int32_t>(parse_int(tok[5]));
    timeline.append(rank, iv);
  }
  PALS_CHECK_MSG(magic_seen && ranks_seen, "timeline parse: truncated input");
  timeline.validate();
  return timeline;
}

}  // namespace pals
