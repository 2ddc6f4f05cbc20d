#include "core/gear_schedule.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "core/controllers.hpp"
#include "core/pipeline.hpp"
#include "trace/transform.hpp"
#include "util/error.hpp"

namespace pals {

std::ptrdiff_t GearSchedule::row_of(std::int32_t phase,
                                    std::int32_t iteration) const {
  switch (key) {
    case SegmentKey::kRun:
      return -1;
    case SegmentKey::kPhase: {
      if (phase < 0) return -1;
      const auto it = std::lower_bound(phases.begin(), phases.end(), phase);
      PALS_CHECK_MSG(it != phases.end() && *it == phase,
                     "no gear row for phase " << phase);
      return it - phases.begin();
    }
    case SegmentKey::kIteration:
      if (iteration < 0) return -1;
      PALS_CHECK_MSG(static_cast<std::size_t>(iteration) < rows.size(),
                     "no gear row for iteration " << iteration);
      return iteration;
  }
  throw Error("invalid SegmentKey enum value");
}

const Gear& GearSchedule::gear(Rank rank, std::int32_t phase,
                               std::int32_t iteration) const {
  const std::ptrdiff_t row = row_of(phase, iteration);
  const auto r = static_cast<std::size_t>(rank);
  return row < 0 ? fallback.gears[r]
                 : rows[static_cast<std::size_t>(row)][r];
}

double GearSchedule::overclocked_fraction(double nominal_fmax_ghz) const {
  if (rows.empty()) return fallback.overclocked_fraction(nominal_fmax_ghz);
  const std::size_t n = fallback.gears.size();
  std::size_t overclocked = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (const std::vector<Gear>& row : rows) {
      if (row[r].frequency_ghz > nominal_fmax_ghz + 1e-12) {
        ++overclocked;
        break;
      }
    }
  }
  return static_cast<double>(overclocked) / static_cast<double>(n);
}

void GearSchedule::check(Rank n_ranks) const {
  const auto n = static_cast<std::size_t>(n_ranks);
  PALS_CHECK_MSG(fallback.gears.size() == n,
                 "fallback gear count " << fallback.gears.size()
                                        << " != rank count " << n);
  for (std::size_t s = 0; s < rows.size(); ++s)
    PALS_CHECK_MSG(rows[s].size() == n, "schedule row " << s << " has "
                                                        << rows[s].size()
                                                        << " gears for " << n
                                                        << " ranks");
  PALS_CHECK_MSG(key != SegmentKey::kRun || rows.empty(),
                 "a whole-run schedule has no rows");
  PALS_CHECK_MSG(key != SegmentKey::kPhase || phases.size() == rows.size(),
                 "phase label/gear row count mismatch");
  if (stalls.empty()) return;
  PALS_CHECK_MSG(key == SegmentKey::kIteration && stalls.size() == rows.size(),
                 "transition stalls need one row per iteration");
  for (const std::vector<Seconds>& row : stalls) {
    PALS_CHECK_MSG(row.size() == n, "stall row has " << row.size()
                                                     << " entries for " << n
                                                     << " ranks");
    for (const Seconds stall : row)
      PALS_CHECK_MSG(stall >= 0.0, "negative transition stall");
  }
}

ReplayScale GearSchedule::replay_scale(const PowerModel& power, Rank n_ranks,
                                       std::vector<double>& storage) const {
  check(n_ranks);
  const auto n = static_cast<std::size_t>(n_ranks);
  storage.clear();
  storage.reserve((3 * (rows.size() + 1) + stalls.size()) * n);
  for (const std::vector<Gear>& row : rows)
    for (const Gear& gear : row)
      storage.push_back(power.time_scale(gear.frequency_ghz));
  for (const Gear& gear : fallback.gears)
    storage.push_back(power.time_scale(gear.frequency_ghz));
  for (const std::vector<Seconds>& row : stalls)
    storage.insert(storage.end(), row.begin(), row.end());
  const auto push_power = [&](const std::vector<Gear>& gears) {
    for (const Gear& gear : gears) {
      storage.push_back(power.total_power(gear, /*computing=*/false));
      storage.push_back(power.total_power(gear, /*computing=*/true));
    }
  };
  for (const std::vector<Gear>& row : rows) push_power(row);
  push_power(fallback.gears);

  ReplayScale scale;
  switch (key) {
    case SegmentKey::kRun:
      scale.segment = ReplayScale::Segment::kRun;
      break;
    case SegmentKey::kPhase:
      scale.segment = ReplayScale::Segment::kPhase;
      break;
    case SegmentKey::kIteration:
      scale.segment = ReplayScale::Segment::kIteration;
      break;
  }
  const std::span<const double> all(storage);
  scale.phases = phases;
  scale.factors = all.first(rows.size() * n);
  scale.fallback = all.subspan(rows.size() * n, n);
  scale.stalls = all.subspan((rows.size() + 1) * n, stalls.size() * n);
  scale.power = all.subspan((rows.size() + 1 + stalls.size()) * n);
  return scale;
}

std::vector<double> GearSchedule::power_series(const PowerModel& power,
                                               const Timeline& timeline,
                                               Seconds dt) const {
  check(timeline.n_ranks());
  return power.power_series(
      timeline,
      [this](Rank r, const StateInterval& iv) -> const Gear& {
        return gear(r, iv.phase, iv.iteration);
      },
      dt);
}

namespace {

/// gear_stuck faults pin a rank's DVFS actuator to an extreme gear,
/// whatever was asked for.
void pin_stuck_gears(std::vector<Gear>& gears, const PipelineConfig& config) {
  if (config.replay.faults == nullptr ||
      !config.replay.faults->has_stuck_gears())
    return;
  for (std::size_t r = 0; r < gears.size(); ++r) {
    const std::optional<fault::StuckGear> stuck =
        config.replay.faults->stuck_gear(static_cast<Rank>(r));
    if (!stuck) continue;
    gears[r] = *stuck == fault::StuckGear::kMin
                   ? config.algorithm.gear_set.min_gear()
                   : config.algorithm.gear_set.max_gear();
  }
}

}  // namespace

GearSchedule plan_schedule(const Trace& trace, const PipelineConfig& config,
                           std::span<const Seconds> seed_compute,
                           bool force_controller) {
  const auto n = static_cast<std::size_t>(trace.n_ranks());
  PALS_CHECK_MSG(seed_compute.size() == n,
                 "seed profile has " << seed_compute.size()
                                     << " ranks, the trace " << n);
  // Every decision — one-shot, per phase, controller seed and each later
  // controller step — passes through here.
  const auto effective = [&](std::vector<Gear> gears) {
    PALS_CHECK_MSG(gears.size() == n, "controller returned "
                                          << gears.size() << " gears for "
                                          << n << " ranks");
    pin_stuck_gears(gears, config);
    return gears;
  };

  GearSchedule schedule;
  const bool controlled =
      force_controller || config.controller.kind != ControllerKind::kStatic;
  if (!controlled || trace.iteration_count() == 0) {
    schedule.fell_back_static = controlled;
    if (config.per_phase) {
      schedule.key = SegmentKey::kPhase;
      schedule.phases = trace.phases();
      PALS_CHECK_MSG(!schedule.phases.empty(),
                     "per-phase pipeline requires phase-labelled bursts");
      std::vector<std::vector<Seconds>> phase_times;
      phase_times.reserve(schedule.phases.size());
      for (const std::int32_t p : schedule.phases) {
        std::vector<Seconds> times(n);
        for (Rank r = 0; r < trace.n_ranks(); ++r)
          times[static_cast<std::size_t>(r)] = trace.computation_time(r, p);
        phase_times.push_back(std::move(times));
      }
      for (FrequencyAssignment& a :
           assign_frequencies_per_phase(phase_times, config.algorithm))
        schedule.rows.push_back(effective(std::move(a.gears)));
      schedule.fallback = assign_frequencies(seed_compute, config.algorithm);
    } else {
      schedule.fallback =
          assign_frequencies(seed_compute, config.algorithm, config.power);
    }
    schedule.fallback.gears = effective(std::move(schedule.fallback.gears));
    return schedule;
  }

  // The controller decision loop. Observations are each iteration's trace
  // compute stretched by the β time model at the gears that ran, so the
  // whole schedule is static: no replay needed.
  schedule.key = SegmentKey::kIteration;
  const PowerModel power(config.power);
  const std::vector<std::vector<Seconds>> base_times =
      iteration_computation_times(trace);
  const std::size_t iterations = base_times.size();
  const std::unique_ptr<Controller> controller =
      make_controller(config.controller, config.algorithm, config.power);

  ControllerSeed seed;
  seed.n_ranks = n;
  seed.iterations = iterations;
  seed.total_compute.assign(seed_compute.begin(), seed_compute.end());
  schedule.rows.reserve(iterations);
  schedule.rows.push_back(effective(controller->start(seed)));
  schedule.stalls.assign(iterations, std::vector<Seconds>(n, 0.0));

  for (std::size_t i = 0; i + 1 < iterations; ++i) {
    IterationObservation obs;
    obs.iteration = i;
    obs.applied_gears = schedule.rows[i];
    obs.observed_compute.resize(n);
    for (std::size_t r = 0; r < n; ++r)
      obs.observed_compute[r] =
          base_times[i][r] *
          power.time_scale(schedule.rows[i][r].frequency_ghz);

    std::vector<Gear> next = effective(controller->observe(obs));
    for (std::size_t r = 0; r < n; ++r) {
      if (next[r].frequency_ghz == schedule.rows[i][r].frequency_ghz &&
          next[r].voltage_v == schedule.rows[i][r].voltage_v)
        continue;
      ++schedule.switches;
      schedule.stalls[i + 1][r] = config.controller.transition_latency;
    }
    schedule.rows.push_back(std::move(next));
  }
  schedule.transition_energy = static_cast<double>(schedule.switches) *
                               config.controller.transition_energy;
  // Setup and teardown code outside the loop runs under the seed gears.
  schedule.fallback.gears = schedule.rows.front();
  return schedule;
}

}  // namespace pals
