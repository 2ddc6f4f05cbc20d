#include "analysis/controller_study.hpp"

#include <iomanip>
#include <sstream>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/experiments.hpp"
#include "core/controller_pipeline.hpp"
#include "core/controllers.hpp"
#include "core/jitter.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "power/controller.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "workloads/apps.hpp"
#include "workloads/registry.hpp"

namespace pals {

std::string controller_schedules_csv(const Trace& trace) {
  std::vector<std::pair<std::string, std::vector<std::vector<Gear>>>>
      schedules;
  for (const std::string& name : controller_names()) {
    PipelineConfig config = default_pipeline_config(paper_uniform(6));
    config.controller.kind = controller_by_name(name);
    ControllerPipelineResult result = run_controller_pipeline(trace, config);
    schedules.emplace_back(name, std::move(result.controller.schedule));
  }
  return schedules_to_csv(schedules);
}

namespace {

/// The `case,key,value` lines of schedule_pins_csv.
struct Pins {
  std::ostringstream out;
  std::string name;

  void line(const std::string& key, const std::string& value) {
    out << name << ',' << key << ',' << value << '\n';
  }
  void count(const std::string& key, std::size_t value) {
    line(key, std::to_string(value));
  }
  void metric(const std::string& key, double value) {
    std::ostringstream os;
    os << std::setprecision(13) << value;
    line(key, os.str());
  }
  void gears(const std::string& key, const std::vector<Gear>& gears) {
    std::string value;
    for (const Gear& g : gears)
      value += (value.empty() ? "" : " ") + format_roundtrip(g.frequency_ghz) +
               ':' + format_roundtrip(g.voltage_v);
    line(key, value);
  }
  void rows(const std::vector<std::vector<Gear>>& rows) {
    for (std::size_t i = 0; i < rows.size(); ++i)
      gears("gears.iteration." + std::to_string(i), rows[i]);
  }
  void controller_run(const ControllerPipelineResult& run) {
    count("fell_back_static", run.controller.fell_back_static ? 1 : 0);
    count("iterations", run.controller.iterations);
    count("switches", run.controller.switches);
    metric("normalized_energy", run.pipeline.normalized_energy());
    metric("normalized_time", run.pipeline.normalized_time());
    gears("gears.assignment", run.pipeline.assignment.gears);
    rows(run.controller.schedule);
  }
};

Trace without_markers(const Trace& trace) {
  Trace out(trace.n_ranks());
  out.set_name(trace.name());
  for (Rank r = 0; r < trace.n_ranks(); ++r)
    for (const Event& e : trace.events(r))
      if (!std::holds_alternative<MarkerEvent>(e)) out.append(r, e);
  return out;
}

}  // namespace

std::string schedule_pins_csv(const Trace& drift) {
  Pins pins;
  pins.out << "case,key,value\n";

  // The examples/dynamic_runtime workload and Jitter configuration.
  WorkloadConfig workload;
  workload.ranks = 24;
  workload.iterations = 48;
  workload.target_lb = 0.5;
  const Trace amr = make_amr_drift(workload);
  for (const Seconds penalty : {0.0, 50e-6}) {
    JitterConfig config;
    config.gear_set = paper_uniform(6);
    config.transition_penalty = penalty;
    const JitterResult jitter = run_jitter(amr, config);
    pins.name = penalty == 0.0 ? "jitter-drift-free" : "jitter-drift-50us";
    pins.count("switches", jitter.gear_shifts);
    pins.metric("normalized_energy", jitter.normalized_energy());
    pins.metric("normalized_time", jitter.normalized_time());
    pins.rows(jitter.schedule);
  }

  const std::optional<BenchmarkInstance> pepc = benchmark_by_name("PEPC-128");
  const std::optional<BenchmarkInstance> bt = benchmark_by_name("BT-MZ-32", 3);
  PALS_CHECK_MSG(pepc && bt, "PEPC-128 / BT-MZ-32 are not registered");
  PipelineConfig per_phase = default_pipeline_config(paper_uniform(6));
  per_phase.per_phase = true;
  const PipelineResult phased = run_pipeline(pepc->make(), per_phase);
  pins.name = "per-phase-pepc-128";
  pins.metric("normalized_energy", phased.normalized_energy());
  pins.metric("normalized_time", phased.normalized_time());
  pins.metric("overclocked_fraction", phased.overclocked_fraction);
  pins.gears("gears.assignment", phased.assignment.gears);
  for (std::size_t i = 0; i < phased.schedule.phases.size(); ++i)
    pins.gears("gears.phase." + std::to_string(phased.schedule.phases[i]),
               phased.schedule.rows[i]);

  PipelineConfig slack = default_pipeline_config(paper_uniform(6));
  slack.controller.kind = ControllerKind::kSlack;
  pins.name = "slack-unmarked-fallback";
  pins.controller_run(
      run_controller_pipeline(without_markers(bt->make()), slack));

  const fault::Injector stuck(fault::FaultPlan::parse(
      "seed=1; gear_stuck:rank=0,gear=min; gear_stuck:rank=2,gear=max"));
  slack.replay.faults = &stuck;
  slack.controller.transition_latency = 50e-6;
  slack.controller.transition_energy = 0.01;
  pins.name = "slack-gear-stuck-min-max";
  pins.controller_run(run_controller_pipeline(drift, slack));
  return pins.out.str();
}

}  // namespace pals
