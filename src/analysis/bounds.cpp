#include "analysis/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <variant>

#include "core/bound.hpp"
#include "core/gear_schedule.hpp"
#include "lint/lint.hpp"
#include "network/platform.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pals {
namespace bounds {

namespace {

/// Relative/absolute widening applied to every non-exact interval end:
/// the analyzer and the replay accumulate the same sums in different
/// orders, so they agree only up to FP round-off. 1e-9 is ~1e6 ulps —
/// orders of magnitude above any realistic accumulation error, orders of
/// magnitude below any scenario-to-scenario margin.
constexpr double kRelSlack = 1e-9;
constexpr double kAbsSlack = 1e-12;

double widen_down(double value) {
  return value - std::abs(value) * kRelSlack - kAbsSlack;
}

double widen_up(double value) {
  return value + std::abs(value) * kRelSlack + kAbsSlack;
}

/// Compute sums of one collective segment, keyed by iteration label
/// (-1 = outside any iteration). Kept as a run-length list: bursts of one
/// iteration are contiguous, so the list stays tiny.
struct SegmentSums {
  std::vector<std::pair<std::int32_t, Seconds>> by_iteration;

  void add(std::int32_t iteration, Seconds duration) {
    if (!by_iteration.empty() && by_iteration.back().first == iteration) {
      by_iteration.back().second += duration;
      return;
    }
    by_iteration.emplace_back(iteration, duration);
  }
};

/// The schedule-independent shape of a trace: its comm volume, the
/// per-slot collective program, and per-rank compute split by collective
/// segment and iteration label. One walk over the events.
struct TraceShape {
  lint::CommVolume volume;
  std::size_t slots = 0;
  /// [rank][segment 0..slots] — segment k precedes collective slot k.
  std::vector<std::vector<SegmentSums>> segments;
  /// [rank][iteration] -> segment holding that iteration's begin marker
  /// (where GearSchedule::rescale inserts transition stalls).
  std::vector<std::vector<std::size_t>> iteration_segment;
};

TraceShape shape_of(const Trace& trace) {
  TraceShape shape;
  shape.volume = lint::comm_volume(trace);
  shape.slots = shape.volume.collectives.size();
  const auto n = static_cast<std::size_t>(trace.n_ranks());
  const std::size_t iterations = trace.iteration_count();
  shape.segments.assign(n, std::vector<SegmentSums>(shape.slots + 1));
  shape.iteration_segment.assign(n, std::vector<std::size_t>(iterations, 0));
  for (std::size_t r = 0; r < n; ++r) {
    std::size_t segment = 0;
    std::int32_t iteration = -1;
    for (const Event& e : trace.events(static_cast<Rank>(r))) {
      if (const auto* m = std::get_if<MarkerEvent>(&e)) {
        if (m->kind == MarkerKind::kIterationBegin) {
          iteration = m->id;
          if (iteration >= 0 &&
              static_cast<std::size_t>(iteration) < iterations)
            shape.iteration_segment[r][static_cast<std::size_t>(iteration)] =
                segment;
        }
        if (m->kind == MarkerKind::kIterationEnd) iteration = -1;
      } else if (const auto* c = std::get_if<ComputeEvent>(&e)) {
        shape.segments[r][segment].add(iteration, c->duration);
      } else if (std::holds_alternative<CollectiveEvent>(e)) {
        // Slots past the common count never complete (replay would wedge);
        // fold trailing compute into the tail segment.
        if (segment < shape.slots) ++segment;
      }
    }
  }
  return shape;
}

}  // namespace

ScenarioBounds analyze(const Trace& trace, const PipelineConfig& config,
                       const ReplayResult* baseline) {
  config.validate();
  PALS_CHECK_MSG(!config.per_phase,
                 "bounds analysis does not support per-phase assignment "
                 "(no single schedule to bound)");
  PALS_CHECK_MSG(trace.n_ranks() > 0, "bounds analysis of an empty trace");
  obs::default_registry().counter("bounds.analyze").add(1);

  const PowerModel power(config.power);
  const PlatformModel& platform = config.replay.platform;
  const auto n = static_cast<std::size_t>(trace.n_ranks());
  const TraceShape shape = shape_of(trace);

  // Seed compute profile: exactly what the pipelines hand the assigners —
  // the baseline replay's per-rank compute when available, the trace's
  // compute sums (per-rank relative speed applied) otherwise.
  std::vector<double> speed(n, 1.0);
  if (!config.replay.relative_speed.empty())
    for (std::size_t r = 0; r < n; ++r)
      speed[r] = config.replay.relative_speed[r];
  std::vector<Seconds> seed_compute;
  if (baseline != nullptr) {
    seed_compute = baseline->compute_time;
  } else {
    seed_compute = trace.computation_times();
    for (std::size_t r = 0; r < n; ++r) seed_compute[r] /= speed[r];
  }

  // The same plan the pipeline replays, so the intervals describe that run.
  const GearSchedule schedule = plan_schedule(trace, config, seed_compute);

  // Scaled compute per rank and collective segment (timeline seconds,
  // i.e. after the per-rank relative-speed division replay applies), the
  // exact compute energy, and each rank's idle-power range.
  std::vector<std::vector<Seconds>> segment_compute(
      n, std::vector<Seconds>(shape.slots + 1, 0.0));
  std::vector<Seconds> rank_compute(n, 0.0);
  double compute_energy = 0.0;
  std::vector<double> idle_power_min(n, 0.0);
  std::vector<double> idle_power_max(n, 0.0);
  bool all_at_or_below_reference = true;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = 0; k <= shape.slots; ++k) {
      for (const auto& [iteration, sum] : shape.segments[r][k].by_iteration) {
        const Gear& gear = schedule.gear(static_cast<Rank>(r), -1, iteration);
        const Seconds scaled =
            sum * power.time_scale(gear.frequency_ghz) / speed[r];
        segment_compute[r][k] += scaled;
        compute_energy += scaled * power.total_power(gear, true);
      }
    }
    for (std::size_t i = 0; i < schedule.stalls.size(); ++i) {
      const Seconds stall = schedule.stalls[i][r];
      if (stall <= 0.0) continue;
      // Transition stalls are wall-clock compute bursts inserted at the
      // iteration's start (GearSchedule::rescale), charged at that
      // iteration's gear and divided by the rank's relative speed.
      const Seconds scaled = stall / speed[r];
      segment_compute[r][shape.iteration_segment[r][i]] += scaled;
      compute_energy += scaled * power.total_power(schedule.rows[i][r], true);
    }
    for (std::size_t k = 0; k <= shape.slots; ++k)
      rank_compute[r] += segment_compute[r][k];

    double p_min = 0.0;
    double p_max = 0.0;
    bool first = true;
    const auto consider = [&](const Gear& gear) {
      const double p = power.total_power(gear, false);
      p_min = first ? p : std::min(p_min, p);
      p_max = first ? p : std::max(p_max, p);
      first = false;
      if (power.time_scale(gear.frequency_ghz) < 1.0)
        all_at_or_below_reference = false;
    };
    consider(schedule.fallback.gears[r]);
    for (const auto& row : schedule.rows) consider(row[r]);
    idle_power_min[r] = p_min;
    idle_power_max[r] = p_max;
  }

  // Collective slot costs, exactly as replay prices them.
  std::vector<Seconds> slot_cost(shape.slots, 0.0);
  Seconds total_slot_cost = 0.0;
  for (std::size_t k = 0; k < shape.slots; ++k) {
    slot_cost[k] =
        collective_cost(platform, shape.volume.collectives[k].op,
                        trace.n_ranks(), shape.volume.collectives[k].max_bytes);
    total_slot_cost += slot_cost[k];
  }

  ScenarioBounds result;
  result.iterations =
      schedule.key == SegmentKey::kIteration ? schedule.rows.size() : 0;
  result.switches = schedule.switches;

  // Lower time bound: collective-segment critical path. Every rank
  // resumes at a collective's completion, so completion times chain:
  //   end(k) >= end(k-1) + max_r compute_between(r, k) + cost(k).
  double critical_path = 0.0;
  for (std::size_t k = 0; k <= shape.slots; ++k) {
    double slowest = 0.0;
    for (std::size_t r = 0; r < n; ++r)
      slowest = std::max(slowest, segment_compute[r][k]);
    critical_path += slowest;
    if (k < shape.slots) critical_path += slot_cost[k];
  }
  result.makespan.lo = std::max(0.0, widen_down(critical_path));
  const bool contention_free = platform.buses == 0 && platform.links_per_node == 0;
  if (baseline != nullptr && contention_free &&
      config.replay.faults == nullptr && all_at_or_below_reference) {
    // Exact floor, deliberately not widened: FP max/+/x are monotone, so
    // stretching compute can only delay a contention-free DES.
    result.makespan.lo = std::max(result.makespan.lo, baseline->makespan);
    result.monotonicity_floor = true;
  }

  // Upper time bound: full serialization of compute, p2p and collectives.
  double serialized = total_slot_cost;
  for (std::size_t r = 0; r < n; ++r) serialized += rank_compute[r];
  serialized += static_cast<double>(shape.volume.messages) * 2.0 *
                platform.latency;
  if (platform.bandwidth > 0.0)
    serialized += static_cast<double>(shape.volume.total_bytes) /
                  platform.bandwidth;
  result.makespan.hi = widen_up(serialized);

  // Energy: exact compute + transition energy, plus each rank's
  // non-compute residency (makespan − compute) priced at the extreme idle
  // powers its scheduled gears admit.
  double energy_lo = compute_energy + schedule.transition_energy;
  double energy_hi = compute_energy + schedule.transition_energy;
  double idle_min_total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    energy_lo += std::max(0.0, result.makespan.lo - rank_compute[r]) *
                 idle_power_min[r];
    energy_hi += std::max(0.0, result.makespan.hi - rank_compute[r]) *
                 idle_power_max[r];
    idle_min_total += idle_power_min[r];
  }
  result.energy.lo = std::max(0.0, widen_down(energy_lo));
  result.energy.hi = widen_up(energy_hi);

  // Average-power floor: E(T) >= A + B·T with A = exact compute energy
  // above its own idle floor and B = total minimum idle power, so
  // E/T >= B + A/T is monotone and attains its minimum at an interval end.
  double offset = compute_energy + schedule.transition_energy;
  for (std::size_t r = 0; r < n; ++r)
    offset -= rank_compute[r] * idle_power_min[r];
  const double at =
      offset >= 0.0 ? result.makespan.hi : std::max(result.makespan.lo, kAbsSlack);
  result.min_average_power =
      std::max(0.0, widen_down(idle_min_total + offset / at));

  if (baseline != nullptr) {
    result.normalized = true;
    const double baseline_time = baseline->makespan;
    const double baseline_energy = power.baseline_energy(baseline->timeline);
    result.normalized_time.lo = result.makespan.lo / baseline_time;
    result.normalized_time.hi = result.makespan.hi / baseline_time;
    result.normalized_energy.lo = result.energy.lo / baseline_energy;
    result.normalized_energy.hi = result.energy.hi / baseline_energy;
  }

  // Continuous reference floor (Rountree LP specialization) at the
  // slowdown this scenario's upper bound admits, over the gear range.
  const Seconds seed_max =
      *std::max_element(seed_compute.begin(), seed_compute.end());
  if (seed_max > 0.0) {
    EnergyBoundConfig bound_config;
    bound_config.power = config.power;
    bound_config.fmax_ghz = config.algorithm.nominal_fmax_ghz;
    bound_config.fmin_ghz =
        std::min(config.algorithm.gear_set.min_gear().frequency_ghz,
                 bound_config.fmax_ghz);
    const Seconds reference_time =
        baseline != nullptr ? baseline->makespan
                            : std::max(critical_path, seed_max);
    const double slowdown = std::max(
        0.0, result.makespan.hi / std::max(reference_time, kAbsSlack) - 1.0);
    result.continuous_energy_floor =
        energy_saving_bound(seed_compute, std::max(reference_time, seed_max),
                            slowdown, bound_config)
            .normalized_energy;
  }
  return result;
}

std::vector<lint::Diagnostic> check_soundness(const ScenarioBounds& bounds,
                                              Seconds actual_makespan,
                                              double actual_energy) {
  std::vector<lint::Diagnostic> diagnostics;
  const auto report = [&](lint::Code code, const char* metric, double actual,
                          const Interval& interval) {
    std::ostringstream os;
    os << metric << ' ' << format_roundtrip(actual)
       << " escaped the static interval [" << format_roundtrip(interval.lo)
       << ", " << format_roundtrip(interval.hi) << ']';
    diagnostics.push_back(lint::Diagnostic{lint::severity_of(code), -1, -1,
                                           code, os.str()});
    obs::default_registry()
        .counter("lint.diag." + lint::to_string(code))
        .add(1);
  };
  if (!bounds.makespan.contains(actual_makespan))
    report(lint::Code::kBoundViolationTime, "replayed makespan",
           actual_makespan, bounds.makespan);
  if (!bounds.energy.contains(actual_energy))
    report(lint::Code::kBoundViolationEnergy, "replayed energy", actual_energy,
           bounds.energy);
  return diagnostics;
}

std::string to_text(const ScenarioBounds& bounds) {
  std::ostringstream os;
  os << "  makespan          [" << format_fixed(bounds.makespan.lo, 6) << ", "
     << format_fixed(bounds.makespan.hi, 6) << "] s"
     << (bounds.monotonicity_floor ? "  (exact baseline floor)" : "") << '\n'
     << "  energy            [" << format_fixed(bounds.energy.lo, 6) << ", "
     << format_fixed(bounds.energy.hi, 6) << "] a.u.\n";
  if (bounds.normalized) {
    os << "  normalized time   [" << format_fixed(bounds.normalized_time.lo, 6)
       << ", " << format_fixed(bounds.normalized_time.hi, 6) << "]\n"
       << "  normalized energy ["
       << format_fixed(bounds.normalized_energy.lo, 6) << ", "
       << format_fixed(bounds.normalized_energy.hi, 6) << "]\n";
  }
  os << "  min avg power     " << format_fixed(bounds.min_average_power, 6)
     << " a.u./s (cap below this is statically infeasible)\n"
     << "  continuous floor  "
     << format_fixed(bounds.continuous_energy_floor, 6)
     << " (reference relaxation, not part of the interval)\n"
     << "  schedule          " << bounds.iterations << " iterations, "
     << bounds.switches << " gear switches\n";
  return os.str();
}

std::string to_json(const ScenarioBounds& bounds) {
  const auto interval = [](const Interval& i) {
    return "{\"lo\":" + format_roundtrip(i.lo) +
           ",\"hi\":" + format_roundtrip(i.hi) + "}";
  };
  std::ostringstream os;
  os << "{\"makespan\":" << interval(bounds.makespan)
     << ",\"energy\":" << interval(bounds.energy)
     << ",\"normalized\":" << (bounds.normalized ? "true" : "false");
  if (bounds.normalized)
    os << ",\"normalized_time\":" << interval(bounds.normalized_time)
       << ",\"normalized_energy\":" << interval(bounds.normalized_energy);
  os << ",\"min_average_power\":" << format_roundtrip(bounds.min_average_power)
     << ",\"continuous_energy_floor\":"
     << format_roundtrip(bounds.continuous_energy_floor)
     << ",\"monotonicity_floor\":"
     << (bounds.monotonicity_floor ? "true" : "false")
     << ",\"iterations\":" << bounds.iterations
     << ",\"switches\":" << bounds.switches << '}';
  return os.str();
}

}  // namespace bounds
}  // namespace pals
