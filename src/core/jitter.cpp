#include "core/jitter.hpp"

#include <algorithm>
#include <utility>

#include "core/gear_schedule.hpp"
#include "trace/transform.hpp"
#include "util/error.hpp"

namespace pals {

void JitterConfig::validate() const {
  PALS_CHECK_MSG(!gear_set.is_continuous(),
                 "the Jitter runtime steps through discrete gears");
  PALS_CHECK_MSG(gear_set.size() >= 2, "need at least two gears to shift");
  PALS_CHECK_MSG(slack_threshold > 0.0 && slack_threshold < 1.0,
                 "slack threshold must lie in (0, 1)");
  PALS_CHECK_MSG(transition_penalty >= 0.0,
                 "transition penalty must be non-negative");
  power.validate();
  replay.validate();
}

JitterResult run_jitter(const Trace& trace, const JitterConfig& config) {
  config.validate();
  const PowerModel power(config.power);
  const auto n = static_cast<std::size_t>(trace.n_ranks());
  const auto gears = config.gear_set.gears();
  const std::size_t top = gears.size() - 1;

  const std::vector<std::vector<Seconds>> base_times =
      iteration_computation_times(trace);
  PALS_CHECK_MSG(!base_times.empty(), "trace has no iterations");

  // Code outside the iterations runs at the reference gear.
  GearSchedule schedule;
  schedule.key = SegmentKey::kIteration;
  schedule.fallback.gears.assign(n, config.power.reference);
  schedule.rows.reserve(base_times.size());
  schedule.stalls.assign(base_times.size(), std::vector<Seconds>(n, 0.0));

  // Per-rank gear index, starting at the top gear.
  std::vector<std::size_t> gear_index(n, top);
  for (std::size_t iteration = 0; iteration < base_times.size();
       ++iteration) {
    if (iteration > 0) {
      // Observe the previous iteration under the gears it actually ran.
      const auto& base = base_times[iteration - 1];
      std::vector<Seconds> observed(n);
      for (std::size_t r = 0; r < n; ++r)
        observed[r] =
            base[r] *
            power.time_scale(gears[gear_index[r]].frequency_ghz);
      const Seconds t_max =
          *std::max_element(observed.begin(), observed.end());
      if (t_max > 0.0) {
        for (std::size_t r = 0; r < n; ++r) {
          const double slack = (t_max - observed[r]) / t_max;
          if (slack > config.slack_threshold && gear_index[r] > 0) {
            // Shift down only if the slower gear still fits the critical
            // path (predicted with the same time model).
            const double predicted =
                base[r] * power.time_scale(
                              gears[gear_index[r] - 1].frequency_ghz);
            if (predicted <= t_max) {
              --gear_index[r];
              ++schedule.switches;
              schedule.stalls[iteration][r] = config.transition_penalty;
            }
          } else if (slack < config.slack_threshold / 2.0 &&
                     gear_index[r] < top) {
            // A rank on (or near) the critical path jumps straight back to
            // the top gear: under drifting imbalance a one-step climb
            // would stretch the critical path for several iterations.
            gear_index[r] = top;
            ++schedule.switches;
            schedule.stalls[iteration][r] = config.transition_penalty;
          }
        }
      }
    }
    std::vector<Gear> iteration_gears(n);
    for (std::size_t r = 0; r < n; ++r)
      iteration_gears[r] = gears[gear_index[r]];
    schedule.rows.push_back(std::move(iteration_gears));
  }

  JitterResult result;
  result.baseline_replay = replay(trace, config.replay);
  result.baseline_time = result.baseline_replay.makespan;
  result.baseline_energy =
      power.baseline_energy(result.baseline_replay.timeline);

  result.scaled_replay = replay(schedule.rescale(trace, power), config.replay);
  result.scaled_time = result.scaled_replay.makespan;
  result.scaled_energy = schedule.energy(power, result.scaled_replay.timeline);
  result.gear_shifts = schedule.switches;
  result.schedule = std::move(schedule.rows);
  return result;
}

}  // namespace pals
