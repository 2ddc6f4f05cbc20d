#include "analysis/profile.hpp"

#include <algorithm>
#include <chrono>

#include "obs/record.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pals {
namespace {

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            std::string_view name) {
  return after.value_of(name) - before.value_of(name);
}

/// Pull the "span.<phase>.{count,wall_ns}" deltas out of two snapshots.
std::vector<PhaseProfile> phase_deltas(const obs::MetricsSnapshot& before,
                                       const obs::MetricsSnapshot& after) {
  std::vector<PhaseProfile> phases;
  constexpr std::string_view kPrefix = "span.";
  constexpr std::string_view kSuffix = ".wall_ns";
  for (const obs::MetricValue& m : after.metrics) {
    if (!starts_with(m.name, kPrefix) || !ends_with(m.name, kSuffix)) continue;
    const std::string name = m.name.substr(
        kPrefix.size(), m.name.size() - kPrefix.size() - kSuffix.size());
    PhaseProfile phase;
    phase.name = name;
    phase.count = counter_delta(before, after, "span." + name + ".count");
    phase.seconds =
        static_cast<double>(counter_delta(before, after, m.name)) / 1e9;
    if (phase.count > 0) phases.push_back(std::move(phase));
  }
  // after.metrics is key-sorted, so phases already are; keep it explicit.
  std::sort(phases.begin(), phases.end(),
            [](const PhaseProfile& a, const PhaseProfile& b) {
              return a.name < b.name;
            });
  return phases;
}

}  // namespace

ProfileReport profile_pipeline(const Trace& trace,
                               const ProfileOptions& options) {
  PALS_CHECK_MSG(options.repeat > 0, "profile repeat must be > 0");
  ProfileOptions resolved = options;
  resolved.config.observe = true;
  resolved.config.validate();

  obs::Registry& reg = obs::default_registry();
  const obs::MetricsSnapshot before = reg.snapshot();

  ThreadPool pool(options.jobs);
  const auto repeat = static_cast<std::size_t>(options.repeat);
  std::vector<PipelineResult> first(1);
  const auto start = std::chrono::steady_clock::now();
  pool.parallel_for(repeat, [&](std::size_t i) {
    PipelineResult result = run_pipeline(trace, resolved.config);
    if (i == 0) first[0] = std::move(result);
  });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  obs::record_thread_pool(pool.stats(), reg);
  obs::record_trace_io(reg);
  const obs::MetricsSnapshot after = reg.snapshot();

  ProfileReport report;
  report.pipelines = repeat;
  report.replays = counter_delta(before, after, "replay.runs");
  report.simulated_events = counter_delta(before, after, "replay.events");
  report.jobs = pool.size();
  report.wall_seconds = wall;
  if (wall > 0.0) {
    report.pipelines_per_second = static_cast<double>(repeat) / wall;
    report.events_per_second =
        static_cast<double>(report.simulated_events) / wall;
  }
  report.phases = phase_deltas(before, after);
  report.pool = pool.stats();
  report.result = std::move(first[0]);
  return report;
}

}  // namespace pals
