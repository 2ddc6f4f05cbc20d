// Pipeline profiling harness behind tools/pals_profile.
//
// Runs the full power-analysis pipeline repeatedly (optionally across a
// thread pool), with observability forced on, and reduces the metric and
// span deltas into a throughput report: pipelines/sec, simulated
// events/sec and the per-phase wall-clock breakdown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/pipeline.hpp"
#include "power/gearset.hpp"
#include "util/thread_pool.hpp"

namespace pals {

struct ProfileOptions {
  /// Pipeline repetitions; > 1 turns the run into a throughput
  /// measurement (every repetition computes identical results).
  int repeat = 1;
  /// Thread-pool width for the repetitions (0 = hardware concurrency).
  int jobs = 1;
  PipelineConfig config = default_pipeline_config(paper_uniform(6));
};

/// Total wall-clock attributed to one span name across the profiled run.
struct PhaseProfile {
  std::string name;  ///< span name, e.g. "pipeline.scaled_replay"
  std::uint64_t count = 0;
  double seconds = 0.0;

  bool operator==(const PhaseProfile&) const = default;
};

struct ProfileReport {
  std::size_t pipelines = 0;         ///< pipeline executions (= repeat)
  std::size_t replays = 0;           ///< replay() calls in this run
  std::size_t simulated_events = 0;  ///< DES events across those replays
  int jobs = 1;
  double wall_seconds = 0.0;
  double pipelines_per_second = 0.0;  ///< a.k.a. scenarios per second
  double events_per_second = 0.0;
  /// Per-phase span totals (deltas over this run), sorted by name.
  std::vector<PhaseProfile> phases;
  ThreadPoolStats pool;
  /// Result of the first repetition (all repetitions are identical).
  PipelineResult result;
};

/// Profile `options.repeat` pipeline runs over `trace`. Forces
/// config.observe on; also mirrors thread-pool and trace-I/O stats into
/// obs::default_registry() so a subsequent snapshot carries them.
ProfileReport profile_pipeline(const Trace& trace,
                               const ProfileOptions& options);

}  // namespace pals
