// Query execution: one serve request -> one byte-exact sweep cell.
//
// The engine runs the sweep cell itself: the request becomes a Scenario,
// Scenario::cell_config composes its PipelineConfig (the one composition
// run_sweep uses), platform overrides go through the settings table
// that --config files also use (analysis/experiments.hpp apply_setting),
// and the row is flattened under the Scenario's variant_label. A served row is therefore byte-identical to the row
// `pals_sweep --jobs=1` writes for the same cell;
// tests/serve/serve_torture_test.cpp pins it.
#pragma once

#include "analysis/experiments.hpp"
#include "core/pipeline.hpp"
#include "power/gearset.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"

namespace pals {
namespace serve {

/// The warm entry a query builds on a cache miss: `trace`, its compiled
/// replay program and its baseline replay under `config`, without the
/// baseline's message and collective logs (no served row reads them).
/// Throws what ReplayProgram and replay() throw on a malformed trace.
WarmEntry make_warm_entry(Trace trace, const ReplayConfig& config);

struct QueryEngineOptions {
  /// Daemon-wide base configuration (defaults + --config overlay); each
  /// query overlays its own cell axes and platform overrides on a copy.
  PipelineConfig base = default_pipeline_config(paper_uniform(6));
  /// Iterations for workloads without an explicit count when the request
  /// does not set `iterations`.
  int default_iterations = 10;
};

class QueryEngine {
 public:
  QueryEngine(QueryEngineOptions options, WarmCache& cache)
      : options_(std::move(options)), cache_(cache) {}

  /// Execute one query under a remaining wall budget of
  /// `deadline_seconds` (0 = unlimited; threaded into the replay
  /// engine's wall watchdog). Throws ProtocolError:
  ///  * kNotFound for an unknown workload/gear set/algorithm/controller,
  ///  * kBadRequest for platform overrides the models reject,
  ///  * kDeadlineExceeded when the watchdog expires mid-replay.
  /// Anything else escapes as pals::Error (the server answers kInternal).
  ExperimentRow execute(const Request& request, double deadline_seconds);

 private:
  QueryEngineOptions options_;
  WarmCache& cache_;
};

}  // namespace serve
}  // namespace pals
