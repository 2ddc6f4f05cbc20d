// Dynamic runtime example: when the imbalance pattern moves, a static
// whole-run frequency assignment is blind — the per-iteration Jitter-style
// controller (ControllerKind::kJitter, core/controllers.hpp) tracks it.
//
// Run: ./build/examples/dynamic_runtime
#include <iostream>

#include "analysis/experiments.hpp"
#include "core/pipeline.hpp"
#include "util/strings.hpp"
#include "workloads/apps.hpp"

namespace pals {
namespace {

int run() {
  // A drifting hot spot: every iteration has LB 0.5, but the totals are
  // balanced because the hot region visits every rank over the run.
  WorkloadConfig workload;
  workload.ranks = 24;
  workload.iterations = 48;
  workload.target_lb = 0.5;
  const Trace trace = make_amr_drift(workload);

  PipelineConfig config = default_pipeline_config(paper_uniform(6));
  const PipelineResult static_result = run_pipeline(trace, config);

  config.controller.kind = ControllerKind::kJitter;
  const PipelineResult dynamic =
      run_pipeline(trace, config, static_result.baseline_replay);

  std::cout << "workload " << trace.name() << ": per-iteration LB 50%, "
            << "whole-run LB "
            << format_percent(static_result.load_balance) << "\n\n"
            << "static MAX   energy "
            << format_percent(static_result.normalized_energy()) << ", time "
            << format_percent(static_result.normalized_time()) << '\n'
            << "dynamic      energy "
            << format_percent(dynamic.normalized_energy()) << ", time "
            << format_percent(dynamic.normalized_time()) << " ("
            << dynamic.schedule.switches << " gear shifts)\n\n";

  // Show the runtime chasing the hot spot: the gear of three sample ranks
  // over the first iterations.
  std::cout << "gear (GHz) of ranks 0, 8, 16 per iteration:\n";
  for (std::size_t it = 0; it < 16; ++it) {
    std::cout << "  iter " << it << ":";
    for (const std::size_t r : {0u, 8u, 16u})
      std::cout << ' '
                << format_fixed(dynamic.schedule.rows[it][r].frequency_ghz, 1);
    std::cout << '\n';
  }
  std::cout << "\nThe static algorithm sees balanced totals and keeps every "
               "rank near the top gear;\nthe dynamic runtime rides the "
               "drifting imbalance.\n";
  return 0;
}

}  // namespace
}  // namespace pals

int main() { return pals::run(); }
