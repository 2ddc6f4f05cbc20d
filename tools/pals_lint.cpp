// pals_lint — static trace verifier CLI.
//
//   pals_lint trace.palst [more.palst ...] [--format=text|csv|json]
//             [--strict] [--max-diags=N] [--eager-threshold=BYTES]
//             [--no-deadlock] [--quiet]
//   pals_lint --workload=CG-32 [--iterations=N] ...
//   pals_lint --workload=CG-32 --bounds [--power-cap=P]
//             [--algorithm=max|avg|energy-optimal] [--gears=uniform-6]
//             [--controller=static,dynamic_max,...] [--beta=0.5]
//
// Loads each input trace *without* Trace::validate() (so broken traces
// reach the linter intact), runs every lint pass (lint/lint.hpp) and
// prints the exhaustive diagnostic list. --json is shorthand for
// --format=json (one JSON object per input, one per line).
//
// Static bounds (docs/bounds.md): --bounds additionally abstract-
// interprets each *clean* input under the configured gear set /
// algorithm and every controller of the comma-separated --controller
// list, and prints guaranteed pre-replay intervals on makespan and CPU
// energy, plus the provable floor on time-average power. With
// --power-cap=P, a cap below the floor of *every* listed controller is
// reported as statically infeasible and fails the run: no configured
// scenario can meet it (the cap-feasibility check of Medhat et al.,
// arXiv:1410.6824). A cap above some floor passes, since feasibility of
// the cheapest admissible scenario is all a static gate can promise.
// Traces with lint errors skip the analysis (the abstract interpretation
// assumes a replayable trace).
//
// Exit codes:
//
//   0  every input linted clean (warnings allowed unless --strict) and,
//      with --bounds --power-cap, every cap is feasible
//   1  at least one input has errors (or warnings, with --strict), or a
//      power cap is statically infeasible
//   2  usage error (including an unknown --algorithm or --controller) or
//      unreadable/unparseable input
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/experiments.hpp"
#include "analysis/sweep.hpp"
#include "core/controllers.hpp"
#include "lint/lint.hpp"
#include "trace/io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

struct Input {
  std::string label;
  Trace trace;
};

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_option("format", "output format: text, csv or json", "text");
  cli.add_option("max-diags", "keep at most N diagnostics (0 = all)", "0");
  cli.add_option("eager-threshold",
                 "eager/rendezvous protocol switch in bytes "
                 "(must match the replay platform for exact deadlock "
                 "equivalence)");
  cli.add_option("workload", "lint a generated benchmark instance "
                             "(registry name, e.g. CG-32) instead of a file");
  cli.add_option("iterations", "iterations for --workload", "10");
  cli.add_option("algorithm",
                 "--bounds scenario: max, avg or energy-optimal", "max");
  cli.add_option("gears", "--bounds scenario: gear set name", "uniform-6");
  cli.add_option("controller",
                 "--bounds scenarios: comma-separated list of static, "
                 "dynamic_max, dynamic_avg, slack, ewma, jitter", "static");
  cli.add_option("beta", "--bounds scenario: memory boundedness [0,1]",
                 "0.5");
  cli.add_option("power-cap",
                 "with --bounds: fail when the cap (a.u./s) is below every "
                 "controller's provable average-power floor");
  cli.add_flag("strict", "treat warnings as fatal (exit 1)");
  cli.add_flag("no-deadlock", "skip the abstract-replay deadlock analysis");
  cli.add_flag("quiet", "print only the per-input summary line");
  cli.add_flag("json", "shorthand for --format=json");
  cli.add_flag("bounds", "run the static bounds analyzer on clean inputs "
                         "(docs/bounds.md)");
  cli.add_flag("help", "show usage");

  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << '\n' << cli.usage("pals_lint");
    return 2;
  }
  if (cli.get_flag("help")) {
    std::cout << cli.usage("pals_lint");
    return 0;
  }
  if (cli.positional().empty() && !cli.has("workload")) {
    std::cerr << "need at least one trace file or --workload\n"
              << cli.usage("pals_lint");
    return 2;
  }
  const std::string format =
      cli.get_flag("json") ? "json" : cli.get("format");
  if (format != "text" && format != "csv" && format != "json") {
    std::cerr << "unknown --format '" << format << "' (text, csv or json)\n";
    return 2;
  }
  if (cli.has("power-cap") && !cli.get_flag("bounds")) {
    std::cerr << "--power-cap requires --bounds\n";
    return 2;
  }
  const Algorithm algorithm = algorithm_by_name(cli.get("algorithm"));

  lint::LintOptions options;
  options.max_diagnostics =
      static_cast<std::size_t>(cli.get_int("max-diags", 0));
  if (cli.has("eager-threshold"))
    options.eager_threshold =
        static_cast<Bytes>(cli.get_int("eager-threshold", 0));
  options.deadlock = !cli.get_flag("no-deadlock");

  std::vector<Input> inputs;
  for (const std::string& path : cli.positional()) {
    // No validate(): the linter reports what validate() would throw on.
    inputs.push_back(Input{path, read_trace_auto(path, /*validate=*/false)});
  }
  if (cli.has("workload")) {
    const std::string name = cli.get("workload");
    const auto iterations = static_cast<int>(cli.get_int("iterations", 10));
    const auto instance = benchmark_by_name(name, iterations);
    if (!instance.has_value()) {
      std::cerr << "unknown workload '" << name
                << "' (expected a Table 3 instance name like CG-32)\n";
      return 2;
    }
    inputs.push_back(Input{name, instance->make()});
  }

  // The pre-replay scenarios the bounds analyzer interprets, one per
  // --controller name; built once, shared by every input.
  std::vector<PipelineConfig> bounds_configs;
  if (cli.get_flag("bounds")) {
    for (const std::string& name : split(cli.get("controller"), ',')) {
      PipelineConfig config = default_pipeline_config(
          gear_set_by_name(cli.get("gears")), algorithm);
      config.controller.kind = controller_by_name(std::string(trim(name)));
      set_beta(config, cli.get_double("beta", 0.5));
      bounds_configs.push_back(config);
    }
  }

  bool failed = false;
  for (const Input& input : inputs) {
    const lint::LintReport report = lint::lint_trace(input.trace, options);
    const bool bad =
        report.has_errors() || (cli.get_flag("strict") && report.warnings > 0);
    failed = failed || bad;

    std::vector<bounds::ScenarioBounds> scenarios;
    bool cap_infeasible = false;
    if (!report.has_errors()) {
      for (const PipelineConfig& config : bounds_configs)
        scenarios.push_back(bounds::analyze(input.trace, config));
      if (cli.has("power-cap")) {
        const double cap = cli.get_double("power-cap", 0.0);
        cap_infeasible = std::all_of(
            scenarios.begin(), scenarios.end(),
            [cap](const auto& b) { return cap < b.min_average_power; });
        failed = failed || cap_infeasible;
      }
    }

    if (inputs.size() > 1 && format == "text")
      std::cout << "== " << input.label << " ==\n";
    if (format == "csv") {
      std::cout << to_csv(report);
    } else if (format == "json") {
      // One self-contained object per input, one per line.
      std::cout << "{\"input\":\"" << json_escape(input.label)
                << "\",\"lint\":" << to_json(report);
      if (!scenarios.empty()) {
        std::cout << ",\"bounds\":{";
        for (std::size_t i = 0; i < scenarios.size(); ++i)
          std::cout << (i > 0 ? "," : "") << '"'
                    << to_string(bounds_configs[i].controller.kind)
                    << "\":" << to_json(scenarios[i]);
        std::cout << '}';
        if (cli.has("power-cap"))
          std::cout << ",\"power_cap\":{\"cap\":"
                    << format_roundtrip(cli.get_double("power-cap", 0.0))
                    << ",\"feasible\":" << (cap_infeasible ? "false" : "true")
                    << '}';
      }
      std::cout << "}\n";
    } else if (cli.get_flag("quiet")) {
      std::cout << input.label << ": " << report.summary() << '\n';
    } else {
      std::cout << to_text(report);
    }
    if (format != "json" && format != "csv" && !bounds_configs.empty()) {
      if (scenarios.empty()) {
        std::cout << "bounds: skipped (trace has lint errors)\n";
      } else {
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
          const PipelineConfig& config = bounds_configs[i];
          std::cout << "bounds (" << to_string(config.controller.kind)
                    << " over " << config.algorithm.gear_set.describe()
                    << "):\n"
                    << bounds::to_text(scenarios[i]);
        }
        if (cli.has("power-cap"))
          std::cout << "power cap " << cli.get("power-cap") << ": "
                    << (cap_infeasible ? "STATICALLY INFEASIBLE (below every "
                                         "provable floor)"
                                       : "feasible")
                    << '\n';
      }
    }
  }
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace pals

int main(int argc, char** argv) {
  try {
    return pals::run(argc, argv);
  } catch (const pals::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
