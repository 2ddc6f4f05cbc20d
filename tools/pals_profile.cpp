// pals_profile — profile the power-analysis pipeline end to end and
// export the observability artifacts.
//
//   pals_profile --workload CG-32 --metrics m.json --chrome-trace t.json
//   pals_profile --trace examples/traces/ring.palst --repeat 32 --jobs 8
//
// Runs the pipeline (--repeat times, across --jobs threads) with span
// profiling on, then writes any of:
//   --metrics       full metrics snapshot (JSON: replay counters, lint,
//                   thread-pool, per-phase spans, trace I/O)
//   --sim-metrics   simulation-only snapshot — byte-identical across
//                   --jobs values and repeated runs
//   --chrome-trace  Chrome trace_event JSON: host spans (pid 1) plus the
//                   simulated baseline (pid 2) and scaled (pid 3)
//                   timelines; load it in Perfetto (ui.perfetto.dev)
//   --sim-trace     simulated baseline timeline only — byte-stable, used
//                   for golden comparisons
#include <iostream>

#include "analysis/profile.hpp"
#include "analysis/sweep.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/record.hpp"
#include "power/gearset.hpp"
#include "trace/io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

namespace pals {
namespace {


int run(int argc, char** argv) {
  CliParser cli;
  cli.add_option("workload", "registry instance (CG-32) or inline spec "
                             "family:ranks:lb[:iterations]");
  cli.add_option("trace", "profile a .palst/.palsb trace file instead");
  cli.add_option("iterations", "iterations for --workload specs without "
                               "an explicit count", "10");
  cli.add_option("gears", "gear set name", "uniform-6");
  cli.add_option("algorithm", "max | avg | energy-optimal", "max");
  cli.add_option("beta", "beta of the time/power model", "0.5");
  cli.add_option("config", "key=value platform/power overrides");
  cli.add_option("repeat", "pipeline repetitions (throughput run)", "1");
  cli.add_option("jobs", "worker threads for the repetitions "
                         "(0 = hardware concurrency)", "1");
  cli.add_option("metrics", "write the full metrics snapshot (JSON)");
  cli.add_option("sim-metrics",
                 "write the simulation-only snapshot (JSON, byte-stable)");
  cli.add_option("chrome-trace",
                 "write a Chrome trace_event JSON (host + simulation)");
  cli.add_option("sim-trace",
                 "write the simulated baseline timeline only (byte-stable)");
  cli.add_flag("quiet", "skip the human-readable summary");
  cli.add_flag("help", "show usage");

  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << cli.usage("pals_profile");
    return 2;
  }
  if (cli.get_flag("help")) {
    std::cout << cli.usage("pals_profile");
    return 0;
  }
  if (cli.has("workload") == cli.has("trace")) {
    std::cerr << "need exactly one of --workload or --trace\n"
              << cli.usage("pals_profile");
    return 2;
  }

  Trace trace;
  std::string source;
  if (cli.has("trace")) {
    source = cli.get("trace");
    trace = read_trace_auto(source);
  } else {
    source = cli.get("workload");
    const WorkloadRef ref = resolve_workload(
        source, static_cast<int>(cli.get_int("iterations", 10)));
    trace = ref.build();
  }

  ProfileOptions options;
  options.repeat = static_cast<int>(cli.get_int("repeat", 1));
  options.jobs = static_cast<int>(cli.get_int("jobs", 1));
  options.config = default_pipeline_config(
      gear_set_by_name(cli.get("gears")),
      algorithm_by_name(cli.get("algorithm")));
  set_beta(options.config, parse_double(cli.get("beta")));
  if (cli.has("config")) apply_config_file(options.config, cli.get("config"));

  const ProfileReport report = profile_pipeline(trace, options);
  obs::record_peak_rss(obs::default_registry());
  const obs::MetricsSnapshot snapshot = obs::default_registry().snapshot();

  if (cli.has("metrics")) atomic_write_file(cli.get("metrics"), snapshot.to_json());
  if (cli.has("sim-metrics"))
    atomic_write_file(cli.get("sim-metrics"),
                    snapshot.simulation_only().to_json());
  if (cli.has("chrome-trace")) {
    obs::ChromeTraceWriter writer;
    append_host_spans(writer, obs::default_registry(), /*pid=*/1);
    obs::SimulatedTraceOptions baseline_opts;
    baseline_opts.pid = 2;
    baseline_opts.process_name = "simulation baseline";
    append_simulated_replay(writer, report.result.baseline_replay,
                            baseline_opts);
    obs::SimulatedTraceOptions scaled_opts;
    scaled_opts.pid = 3;
    scaled_opts.process_name = "simulation scaled";
    append_simulated_replay(writer, report.result.scaled_replay, scaled_opts);
    writer.write_file(cli.get("chrome-trace"));
  }
  if (cli.has("sim-trace")) {
    obs::ChromeTraceWriter writer;
    append_simulated_replay(writer, report.result.baseline_replay);
    writer.write_file(cli.get("sim-trace"));
  }

  if (!cli.get_flag("quiet")) {
    std::cout << "profiled " << source << ": " << report.pipelines
              << " pipeline run(s), " << report.jobs << " job(s)\n"
              << "  wall time:        " << format_fixed(report.wall_seconds, 3)
              << " s\n"
              << "  scenarios/sec:    "
              << format_fixed(report.pipelines_per_second, 1) << '\n'
              << "  simulated events: " << report.simulated_events << " ("
              << format_fixed(report.events_per_second / 1e6, 2) << " M/s)\n"
              << "  peak rss:         "
              << obs::peak_rss_bytes() / (1024ull * 1024ull) << " MiB\n";
    for (const PhaseProfile& phase : report.phases)
      std::cout << "  phase " << phase.name << ": "
                << format_fixed(phase.seconds * 1e3, 3) << " ms over "
                << phase.count << " span(s)\n";
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
