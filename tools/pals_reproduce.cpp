// pals_reproduce — regenerate every table and figure of the paper in one
// run and write a single Markdown report (REPORT.md by default).
//
//   pals_reproduce [--output=REPORT.md] [--iterations=10]
#include <iostream>
#include <sstream>

#include "analysis/figures.hpp"
#include "power/gearset.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

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

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_option("output", "report file", "REPORT.md");
  cli.add_option("iterations", "iterations per generated trace", "10");
  cli.parse(argc, argv);

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
    std::vector<ExperimentRow> rows;
  } sections[] = {
      {"Table 3: application characteristics",
       table3_rows(cache, iterations)},
      {"Figure 2: energy/EDP vs gear-set size (MAX)", figure2_rows(cache, iterations)},
      {"Figure 3: energy vs load balance (MAX)", figure3_rows(cache, iterations)},
      {"Figure 4: exponential gear sets (MAX)", figure4_rows(cache, iterations)},
      {"Figure 5: beta sweep (uniform-6, MAX)", figure5_rows(cache, iterations)},
      {"Figure 6: static-power sweep (uniform-6, MAX)",
       figure6_rows(cache, iterations)},
      {"Figure 7: activity-factor sweep (uniform-6, MAX)",
       figure7_rows(cache, iterations)},
      {"Figure 8: AVG with continuous set (+10/20% OC)",
       figure8_rows(cache, iterations)},
      {"Figure 9: AVG with discrete set (+2.6 GHz gear)",
       figure9_rows(cache, iterations)},
      {"Figure 10: MAX vs AVG", figure10_rows(cache, iterations)},
  };
  for (const auto& section : sections) {
    out << "### " << section.title << "\n\n"
        << rows_to_markdown(section.rows) << '\n';
    std::cout << "wrote " << section.title << " (" << section.rows.size()
              << " rows)\n";
  }
  atomic_write_file(cli.get("output"), out.str());
  std::cout << "report written to " << cli.get("output") << '\n';
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
