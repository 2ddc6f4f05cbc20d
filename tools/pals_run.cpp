// pals_run — the power-analysis pipeline as a command-line tool.
//
//   pals_run --trace=app.palst [--algorithm=max|avg] [--gears=...]
//            [--beta=0.5] [--static-fraction=0.2] [--activity-ratio=1.5]
//            [--warmup=N] [--gantt] [--svg=out.svg]
//   pals_run --workload=cg --ranks=32 --lb=0.9 ...
//
// Gear set names: unlimited, limited, uniform-N, exponential-N,
// avg-discrete (uniform-6 + 2.6 GHz).
#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>

#include "analysis/experiments.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/gantt.hpp"
#include "analysis/svg.hpp"
#include "analysis/svg_chart.hpp"
#include "paraver/export.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "trace/cutter.hpp"
#include "trace/io.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_option("trace", "input .palst trace file");
  cli.add_option("workload", "generate a workload instead (cg, mg, is, "
                             "bt-mz, specfem3d, wrf, pepc, amr-drift)");
  cli.add_option("ranks", "ranks for --workload", "32");
  cli.add_option("iterations", "iterations for --workload", "10");
  cli.add_option("lb", "target load balance for --workload", "0.9");
  cli.add_option("algorithm", "max or avg", "max");
  cli.add_option("gears", "gear set name", "uniform-6");
  cli.add_option("beta", "memory boundedness [0,1]", "0.5");
  cli.add_option("static-fraction", "static power share at fmax", "0.2");
  cli.add_option("activity-ratio", "compute/comm activity ratio", "1.5");
  cli.add_option("warmup", "iterations to cut before analysis", "0");
  cli.add_option("config", "key=value platform/power config file");
  cli.add_option("svg", "write the scaled execution's timeline as SVG");
  cli.add_option("prv", "write the scaled execution as a Paraver trace");
  cli.add_option("power-series",
                 "write baseline+scaled power profiles as CSV");
  cli.add_flag("gantt", "print ASCII Gantt of both executions");
  cli.add_flag("critical-path", "print the baseline's critical path");
  cli.add_flag("per-phase", "assign one frequency per computation phase");
  cli.add_flag("help", "show usage");

  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << cli.usage("pals_run");
    return 2;
  }
  if (cli.get_flag("help")) {
    std::cout << cli.usage("pals_run");
    return 0;
  }

  Trace trace;
  if (cli.has("trace")) {
    trace = read_trace_auto(cli.get("trace"));
  } else if (cli.has("workload")) {
    WorkloadConfig config;
    config.ranks = static_cast<Rank>(cli.get_int("ranks", 32));
    config.iterations = static_cast<int>(cli.get_int("iterations", 10));
    config.target_lb = cli.get_double("lb", 0.9);
    trace = workload_factory(cli.get("workload"))(config);
  } else {
    std::cerr << "need --trace or --workload\n" << cli.usage("pals_run");
    return 2;
  }
  if (const long long warmup = cli.get_int("warmup", 0); warmup > 0)
    trace = drop_warmup(trace, static_cast<std::size_t>(warmup));

  const Algorithm algorithm =
      cli.get("algorithm") == "avg" ? Algorithm::kAvg : Algorithm::kMax;
  PipelineConfig config =
      default_pipeline_config(gear_set_by_name(cli.get("gears")), algorithm);
  set_beta(config, cli.get_double("beta", 0.5));
  config.power.static_fraction = cli.get_double("static-fraction", 0.2);
  config.power.activity_ratio = cli.get_double("activity-ratio", 1.5);
  config.per_phase = cli.get_flag("per-phase");
  if (cli.has("config")) apply_config_file(config, cli.get("config"));

  const PipelineResult result = run_pipeline(trace, config);

  std::cout << "trace:           "
            << (trace.name().empty() ? "<unnamed>" : trace.name()) << " ("
            << trace.n_ranks() << " ranks, " << trace.total_events()
            << " events)\n"
            << "algorithm:       " << to_string(algorithm) << " over "
            << config.algorithm.gear_set.describe() << '\n'
            << "load balance:    " << format_percent(result.load_balance)
            << "\nparallel eff.:   "
            << format_percent(result.parallel_efficiency)
            << "\nbaseline time:   "
            << format_fixed(result.baseline_time * 1e3, 3) << " ms\n"
            << "scaled time:     "
            << format_fixed(result.scaled_time * 1e3, 3) << " ms ("
            << format_percent(result.normalized_time()) << ")\n"
            << "energy:          " << format_percent(result.normalized_energy())
            << "\nEDP:             " << format_percent(result.normalized_edp())
            << "\noverclocked:     "
            << format_percent(result.overclocked_fraction) << '\n';

  // Gear histogram of the assignment.
  std::map<std::string, int> gear_histogram;
  for (const Gear& g : result.assignment.gears)
    ++gear_histogram[format_fixed(g.frequency_ghz, 2) + " GHz"];
  std::cout << "assignment:     ";
  for (const auto& [label, count] : gear_histogram)
    std::cout << ' ' << count << "x " << label;
  std::cout << '\n';

  if (cli.get_flag("gantt")) {
    GanttOptions gantt;
    gantt.max_ranks = 24;
    std::cout << "\noriginal execution:\n"
              << render_gantt(result.baseline_replay.timeline, gantt)
              << "\nDVFS execution:\n"
              << render_gantt(result.scaled_replay.timeline, gantt);
  }
  if (cli.get_flag("critical-path")) {
    std::cout << '\n'
              << render_critical_path(
                     critical_path(result.baseline_replay));
  }
  if (cli.has("svg")) {
    SvgOptions svg;
    svg.title = trace.name() + " under " + to_string(algorithm);
    write_svg_file(result.scaled_replay.timeline, cli.get("svg"), svg);
    std::cout << "svg written to " << cli.get("svg") << '\n';
  }
  if (cli.has("prv")) {
    write_prv_file(export_prv(result.scaled_replay), cli.get("prv"));
    std::cout << "paraver trace written to " << cli.get("prv") << '\n';
  }
  if (cli.has("power-series")) {
    const PowerModel power(config.power);
    const Seconds dt = result.baseline_time / 200.0;
    const std::vector<Gear> reference_gears(
        static_cast<std::size_t>(trace.n_ranks()), config.power.reference);
    const auto baseline = power.power_series(
        result.baseline_replay.timeline, reference_gears, dt);
    // Through the run's own schedule: per-phase and per-iteration gears
    // are charged where they ran, so sum(series)·dt matches the energy.
    const auto scaled =
        result.schedule.power_series(power, result.scaled_replay.timeline, dt);
    std::ostringstream out;
    CsvWriter csv(out);
    csv.row({"time_s", "baseline_power", "dvfs_power"});
    for (std::size_t k = 0; k < std::max(baseline.size(), scaled.size());
         ++k) {
      csv.field(static_cast<double>(k) * dt, 6)
          .field(k < baseline.size() ? baseline[k] : 0.0, 6)
          .field(k < scaled.size() ? scaled[k] : 0.0, 6);
      csv.end_row();
    }
    atomic_write_file(cli.get("power-series"), out.str());
    std::cout << "power profiles written to " << cli.get("power-series")
              << '\n';
    // Companion SVG chart next to the CSV.
    std::vector<ChartSeries> chart_series(2);
    chart_series[0].label = "baseline";
    chart_series[1].label = "DVFS";
    for (std::size_t k = 0; k < baseline.size(); ++k) {
      chart_series[0].x.push_back(static_cast<double>(k) * dt * 1e3);
      chart_series[0].y.push_back(baseline[k]);
    }
    for (std::size_t k = 0; k < scaled.size(); ++k) {
      chart_series[1].x.push_back(static_cast<double>(k) * dt * 1e3);
      chart_series[1].y.push_back(scaled[k]);
    }
    ChartOptions chart;
    chart.title = trace.name() + " power profile";
    chart.x_label = "time (ms)";
    chart.y_label = "aggregate CPU power (a.u.)";
    const std::string chart_path = cli.get("power-series") + ".svg";
    write_chart_file(chart_series, chart_path, chart);
    std::cout << "power chart written to " << chart_path << '\n';
  }
  return 0;
}

}  // namespace
}  // namespace pals

int main(int argc, char** argv) {
  try {
    return pals::run(argc, argv);
  } catch (const pals::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
