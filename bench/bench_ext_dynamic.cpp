// Extension study: static whole-run DVFS (the paper's MAX) vs the
// per-iteration jitter controller (Jitter-style, the paper's reference
// [18]).
//
// On steady imbalance the two converge — the paper's premise that a
// static assignment suffices for "regular, iterative behavior". On a
// drifting hot spot (AMR-like), the static algorithm sees balanced totals
// and saves nothing, while the dynamic runtime tracks the drift.
#include <iostream>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/pipeline.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "workloads/apps.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

void compare(const std::string& name, const Trace& trace, TextTable& table) {
  PipelineConfig config = default_pipeline_config(paper_uniform(6));
  const PipelineResult static_result = run_pipeline(trace, config);
  config.controller.kind = ControllerKind::kJitter;
  const PipelineResult dynamic =
      run_pipeline(trace, config, static_result.baseline_replay);

  table.add_row({name, format_percent(static_result.load_balance),
                 format_percent(static_result.normalized_energy()),
                 format_percent(static_result.normalized_time()),
                 format_percent(dynamic.normalized_energy()),
                 format_percent(dynamic.normalized_time()),
                 std::to_string(dynamic.schedule.switches)});
}

int run() {
  TextTable table({"workload", "total LB", "E(static MAX)", "T(static)",
                   "E(dynamic)", "T(dynamic)", "gear shifts"});

  // Steady imbalance: the paper's benchmark instances.
  TraceCache cache;
  for (const char* name : {"BT-MZ-32", "CG-64", "PEPC-128"}) {
    const auto inst = benchmark_by_name(name, 24);
    compare(name, cache.get(*inst), table);
  }

  // Drifting imbalance: per-iteration LB 0.5, balanced totals. The hot
  // spot completes one revolution per run, so more iterations = slower
  // drift. Fast drift exposes the reactive runtime's observation lag (a
  // newly-hot rank runs one iteration at a low gear); slow drift is the
  // quasi-steady regime where it adapts almost for free.
  for (const Rank ranks : {16, 32, 64}) {
    for (const auto& [label, iterations] :
         {std::pair<const char*, int>{"fast", 24},
          std::pair<const char*, int>{"slow", 96}}) {
      WorkloadConfig config;
      config.ranks = ranks;
      config.iterations = iterations;
      config.target_lb = 0.5;
      compare("AMR-" + std::to_string(ranks) + "-" + label,
              make_amr_drift(config), table);
    }
  }

  std::cout << "== Extension: static MAX vs dynamic (Jitter-style) runtime "
               "==\n";
  table.print(std::cout);
  std::cout << "\nSteady imbalance: dynamic ~= static (the paper's premise "
               "for static assignment).\nDrifting imbalance: static sees "
               "balanced totals and saves ~nothing; the dynamic runtime "
               "adapts,\npaying an observation-lag time penalty that "
               "shrinks as the drift slows.\n";

  // How expensive may a gear switch be before the dynamic runtime stops
  // paying off? (The paper assumes free switching; real voltage
  // regulators stall the core for tens of microseconds.)
  TextTable penalty_table(
      {"transition penalty", "energy", "time", "EDP"});
  WorkloadConfig drift;
  drift.ranks = 32;
  drift.iterations = 96;
  drift.target_lb = 0.5;
  const Trace drift_trace = make_amr_drift(drift);
  PipelineConfig config = default_pipeline_config(paper_uniform(6));
  config.controller.kind = ControllerKind::kJitter;
  const ReplayResult baseline = replay(drift_trace, config.replay);
  for (const double penalty_us : {0.0, 50.0, 500.0, 5000.0}) {
    config.controller.transition_latency = penalty_us * 1e-6;
    const PipelineResult r = run_pipeline(drift_trace, config, baseline);
    penalty_table.add_row({format_fixed(penalty_us, 0) + " us",
                           format_percent(r.normalized_energy()),
                           format_percent(r.normalized_time()),
                           format_percent(r.normalized_edp())});
  }
  std::cout << "\n== Gear-transition cost sweep (AMR-32, slow drift) ==\n";
  penalty_table.print(std::cout);
  return 0;
}

}  // namespace
}  // namespace pals

int main() { return pals::run(); }
