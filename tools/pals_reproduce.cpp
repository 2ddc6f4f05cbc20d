// pals_reproduce — regenerate every table and figure of the paper in one
// run: a single Markdown report (REPORT.md by default) and, next to it,
// each figure's file under the name results/ uses (fig2_gearset_size.csv
// … fig10_max_vs_avg.csv, table3_characteristics.csv,
// fig3_energy_vs_lb.svg and fig1_timeline.txt).
//
//   pals_reproduce [--output=REPORT.md] [--iterations=10] [--help]
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "analysis/critical_path.hpp"
#include "analysis/figures.hpp"
#include "analysis/gantt.hpp"
#include "analysis/svg_chart.hpp"
#include "power/gearset.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"
#include "workloads/registry.hpp"

namespace pals {
namespace {

void gear_table(std::ostream& out, const std::string& title,
                const GearSet& set) {
  out << "### " << title << "\n\n| f (GHz) | V (V) |\n|---|---|\n";
  for (const Gear& g : set.gears())
    out << "| " << format_fixed(g.frequency_ghz, 2) << " | "
        << format_fixed(g.voltage_v, 2) << " |\n";
  out << '\n';
}

/// Figure 1: BT-MZ-32 (2 iterations) before and after MAX as ASCII Gantt
/// charts, with the critical path and the computation share of CPU time.
std::string figure1_timeline(TraceCache& cache) {
  const Trace& trace = cache.get(*benchmark_by_name("BT-MZ-32", 2));
  // The paper's Figure 1 assumes continuous frequency scaling; BT-MZ's
  // extreme imbalance needs frequencies below 0.8 GHz, so use the
  // unlimited set to show the fully balanced execution.
  const PipelineResult result = run_pipeline(
      trace, default_pipeline_config(paper_unlimited_continuous()));

  GanttOptions options;
  options.width = 110;
  options.max_ranks = 16;  // sample half the ranks for readability

  std::ostringstream out;
  out << "== Figure 1(a): original BT-MZ-32 execution ==\n"
      << render_gantt(result.baseline_replay.timeline, options)
      << "\n== Figure 1(b): after the MAX algorithm (continuous set) ==\n"
      << render_gantt(result.scaled_replay.timeline, options);
  out << "\noriginal time " << result.baseline_time * 1e3
      << " ms, after MAX " << result.scaled_time * 1e3
      << " ms; normalized energy " << result.normalized_energy() * 100.0
      << "%\n";
  out << "\ncritical path of the original execution:\n"
      << render_critical_path(critical_path(result.baseline_replay), 6);

  const auto share = [](const Timeline& tl) {
    double compute = 0.0;
    double total = 0.0;
    for (Rank r = 0; r < tl.n_ranks(); ++r) {
      compute += tl.state_time(r, RankState::kCompute);
      total += tl.makespan();
    }
    return compute / total;
  };
  out << "compute share: original "
      << share(result.baseline_replay.timeline) * 100.0 << "%, after MAX "
      << share(result.scaled_replay.timeline) * 100.0 << "%\n";
  return out.str();
}

/// Figure 3 as the paper draws it: one energy-vs-LB series per gear set.
std::string figure3_chart(const std::vector<ExperimentRow>& rows) {
  std::map<std::string, ChartSeries> by_variant;
  for (const ExperimentRow& row : rows) {
    ChartSeries& s = by_variant[row.variant];
    s.label = row.variant;
    s.connect = true;  // rows come LB-sorted, so lines read as trends
    s.x.push_back(row.load_balance * 100.0);
    s.y.push_back(row.normalized_energy * 100.0);
  }
  std::vector<ChartSeries> series;
  for (auto& [variant, s] : by_variant) series.push_back(std::move(s));
  ChartOptions chart;
  chart.title = "Figure 3: energy as a function of load balance";
  chart.x_label = "load balance (%)";
  chart.y_label = "normalized energy (%)";
  return render_chart(series, chart);
}

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_option("output", "report file", "REPORT.md");
  cli.add_option("iterations", "iterations per generated trace", "10");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help")) {
    std::cout << cli.usage("pals_reproduce");
    return 0;
  }

  std::ostringstream out;

  out << "# pals reproduction report\n\n"
      << "Every table and figure of *Power-Aware Load Balancing of Large "
         "Scale MPI Applications* (Etinski et al., IPDPS 2009), "
         "regenerated by simulation. See EXPERIMENTS.md for the "
         "paper-vs-measured discussion.\n\n";

  gear_table(out, "Table 1: 6-gear evenly distributed set", paper_uniform(6));
  gear_table(out, "Table 2: 6-gear exponential set", paper_exponential(6));

  TraceCache cache;
  const auto iterations = static_cast<int>(cli.get_int("iterations", 10));
  const struct {
    const char* title;
    const char* csv;
    std::vector<ExperimentRow> rows;
  } sections[] = {
      {"Table 3: application characteristics", "table3_characteristics.csv",
       table3_rows(cache, iterations)},
      {"Figure 2: energy/EDP vs gear-set size (MAX)", "fig2_gearset_size.csv",
       figure2_rows(cache, iterations)},
      {"Figure 3: energy vs load balance (MAX)", "fig3_energy_vs_lb.csv",
       figure3_rows(cache, iterations)},
      {"Figure 4: exponential gear sets (MAX)", "fig4_exponential.csv",
       figure4_rows(cache, iterations)},
      {"Figure 5: beta sweep (uniform-6, MAX)", "fig5_beta.csv",
       figure5_rows(cache, iterations)},
      {"Figure 6: static-power sweep (uniform-6, MAX)",
       "fig6_static_power.csv", figure6_rows(cache, iterations)},
      {"Figure 7: activity-factor sweep (uniform-6, MAX)", "fig7_activity.csv",
       figure7_rows(cache, iterations)},
      {"Figure 8: AVG with continuous set (+10/20% OC)",
       "fig8_avg_continuous.csv", figure8_rows(cache, iterations)},
      {"Figure 9: AVG with discrete set (+2.6 GHz gear)",
       "fig9_avg_discrete.csv", figure9_rows(cache, iterations)},
      {"Figure 10: MAX vs AVG", "fig10_max_vs_avg.csv",
       figure10_rows(cache, iterations)},
  };
  for (const auto& section : sections) {
    out << "### " << section.title << "\n\n"
        << rows_to_markdown(section.rows) << '\n';
    std::cout << "wrote " << section.title << " (" << section.rows.size()
              << " rows)\n";
  }
  const std::filesystem::path output = cli.get("output");
  const std::filesystem::path dir = output.parent_path();
  std::error_code ignored;  // a missing directory fails the write below
  if (!dir.empty()) std::filesystem::create_directories(dir, ignored);
  atomic_write_file(output.string(), out.str());
  std::cout << "report written to " << output.string() << '\n';

  for (const auto& section : sections)
    write_rows_csv(section.rows, (dir / section.csv).string());
  atomic_write_file((dir / "fig3_energy_vs_lb.svg").string(),
                    figure3_chart(sections[2].rows));  // Figure 3
  atomic_write_file((dir / "fig1_timeline.txt").string(),
                    figure1_timeline(cache));
  std::cout << "figure files written next to " << output.string() << '\n';
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
