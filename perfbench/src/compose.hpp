// Sweep cells and served queries composed from the library's public
// calls, one span per call.
//
// A composed cell repeats, call by call, what run_sweep's cell path and
// QueryEngine::execute do, so its row must be byte-equal to theirs; the
// benchmark uses it both as the correctness reference of every measured
// row and as the traced run's per-layer waterfall. run_controller_pipeline
// has no public seam inside it, so a controller cell's pipeline is one
// span (core.controller).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/sweep.hpp"
#include "serve/query.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Work counts of one pass. Every field repeats exactly for a fixed seed.
struct Counts {
  std::uint64_t workload_events = 0;  ///< trace events built
  std::uint64_t replay_events = 0;    ///< DES events, baseline + scaled
  /// The part of replay_events replayed inside run_controller_pipeline,
  /// where no replay span can be recorded.
  std::uint64_t controller_replay_events = 0;
  std::uint64_t replay_records = 0;   ///< messages + collectives replayed
  std::uint64_t queue_peak = 0;       ///< max DES queue high-water mark
  std::uint64_t rescale_bytes = 0;    ///< computed: rescaled events * sizeof
  std::uint64_t controller_iterations = 0;
  std::uint64_t controller_switches = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_entry_bytes = 0;  ///< summed over built entries
};

/// One pass over a workload's cells or queries.
struct Pass {
  /// csv_data_line of every cell (canonical grid order) or query.
  std::vector<std::string> rows;
  /// Seconds each run_pipeline / QueryEngine::execute call took, when
  /// the pass makes them.
  std::vector<double> call_seconds;
  /// Per cell, the run_pipeline call minus the cell's composed pipeline
  /// parts (traced passes that run_pipeline only).
  std::vector<double> glue_seconds;
  /// Cells whose run_pipeline row differs from the composed row.
  std::size_t pipeline_mismatches = 0;
  double wall_seconds = 0.0;
  Counts counts;
};

/// The sweep engine's per-cell configuration (make_config in
/// analysis/sweep.cpp) for a fault-free sweep.
pals::PipelineConfig cell_config(const pals::PipelineConfig& base,
                                 const pals::Scenario& scenario);

/// Compose every cell of `workload`: per workload a trace build and a
/// baseline replay, per cell the bounds, the pipeline's parts, the row
/// render and, when `journal_path` is set, a journal append. With
/// `run_pipeline` set, each cell is followed by a timed run_pipeline call
/// on the same inputs (outside every span), whose row must match.
Pass compose_sweep(const SweepWorkload& workload,
                   const std::string& journal_path, Tracer& tracer,
                   bool run_pipeline);

/// Compose every query line through parse_request, a WarmCache of
/// `cache_bytes` (0 = unlimited) and the composed pipeline; `run_pipeline`
/// as for compose_sweep.
Pass compose_serve(const std::vector<std::string>& lines,
                   std::size_t cache_bytes, Tracer& tracer, bool run_pipeline);

/// The same lines through QueryEngine::execute, each call timed.
Pass reference_serve(const std::vector<std::string>& lines,
                     std::size_t cache_bytes);

}  // namespace perfbench
