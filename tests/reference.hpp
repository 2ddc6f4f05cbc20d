// Test-side reference code: the timeline forms the suites compare the
// library against. None of it runs in a shipped binary, so it lives here
// and not in the libraries.
#pragma once

#include <cmath>
#include <cstdint>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "core/gear_schedule.hpp"
#include "power/power_model.hpp"
#include "trace/timeline.hpp"
#include "trace/trace.hpp"
#include "trace/transform.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pals {

/// Throws pals::Error if any lane of `timeline` starts before 0, has a
/// gap or overlap, or holds a non-finite or negative-length interval.
inline void validate_timeline(const Timeline& timeline) {
  for (Rank r = 0; r < timeline.n_ranks(); ++r) {
    bool first = true;
    Seconds cursor = 0.0;
    for (const StateInterval& iv : timeline.intervals(r)) {
      PALS_CHECK_MSG(std::isfinite(iv.begin) && std::isfinite(iv.end),
                     "rank " << r << ": non-finite interval bound");
      PALS_CHECK_MSG(iv.end >= iv.begin,
                     "rank " << r << ": negative-length interval");
      if (first) check_lane_start(r, iv.begin);
      else
        PALS_CHECK_MSG(std::abs(iv.begin - cursor) <= 1e-9,
                       "rank " << r << ": gap or overlap at t=" << iv.begin);
      first = false;
      cursor = iv.end;
    }
  }
}

/// The RankState that to_string names `name`.
inline RankState parse_rank_state(std::string_view name) {
  if (name == "compute") return RankState::kCompute;
  if (name == "send") return RankState::kSend;
  if (name == "recv") return RankState::kRecv;
  if (name == "wait") return RankState::kWait;
  if (name == "collective") return RankState::kCollective;
  if (name == "idle") return RankState::kIdle;
  throw Error("unknown rank state: " + std::string(name));
}

/// Parses what write_timeline writes.
inline Timeline read_timeline(std::istream& in) {
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
    if (tok.size() >= 5)
      iv.phase = static_cast<std::int32_t>(parse_int(tok[4]));
    if (tok.size() == 6)
      iv.iteration = static_cast<std::int32_t>(parse_int(tok[5]));
    timeline.append(rank, iv);
  }
  PALS_CHECK_MSG(magic_seen && ranks_seen, "timeline parse: truncated input");
  validate_timeline(timeline);
  return timeline;
}

/// CPU energy of a replayed `timeline` under `schedule`, each interval at
/// the gear of its phase and iteration labels, plus the transition
/// energy: the timeline form of the scaled replay's in-pass sum
/// (ReplayResult::energy + transition_energy).
inline double schedule_energy(const GearSchedule& schedule,
                              const PowerModel& power,
                              const Timeline& timeline) {
  const auto n = static_cast<std::size_t>(timeline.n_ranks());
  PALS_CHECK_MSG(schedule.fallback.gears.size() == n,
                 "fallback covers " << schedule.fallback.gears.size()
                                    << " ranks, timeline " << n);
  for (const std::vector<Gear>& row : schedule.rows)
    PALS_CHECK_MSG(row.size() == n, "schedule row covers " << row.size()
                                                           << " ranks");
  return power.energy(timeline,
                      [&schedule](Rank r, const StateInterval& iv)
                          -> const Gear& {
                        return schedule.gear(r, iv.phase, iv.iteration);
                      }) +
         schedule.transition_energy;
}

/// Energy of `rank`'s lane with its CPU at `gear` for the whole run, its
/// idle tail to the makespan included: PowerModel::energy's sum for one
/// lane.
inline double rank_energy(const PowerModel& power, const Timeline& timeline,
                          Rank rank, const Gear& gear) {
  double energy = 0.0;
  Seconds end = 0.0;
  for (const StateInterval& iv : timeline.intervals(rank)) {
    energy += iv.duration() *
              power.total_power(gear, iv.state == RankState::kCompute);
    end = iv.end;
  }
  const Seconds tail = timeline.makespan() - end;
  if (tail > 0.0) energy += tail * power.total_power(gear, false);
  return energy;
}

/// scale_compute with one factor on every rank.
inline Trace scale_compute_uniform(const Trace& trace, double factor) {
  return scale_compute(
      trace,
      std::vector<double>(static_cast<std::size_t>(trace.n_ranks()), factor));
}

}  // namespace pals
