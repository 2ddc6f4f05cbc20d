// Figure 2 of the paper: normalized CPU energy and EDP under the MAX
// algorithm for the unlimited/limited continuous sets and evenly
// distributed discrete sets with 2..15 gears, for the five applications
// the paper shows (space-limited subset). Runs on the parallel sweep
// engine; pass --jobs=N to use N worker threads (same output for all N).
#include <iostream>

#include "analysis/figures.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  try {
    pals::CliParser cli;
    cli.add_option("jobs", "worker threads (0 = hardware concurrency)", "1");
    cli.parse(argc, argv);
    pals::TraceCache cache;
    pals::print_rows(
        pals::figure2_rows(cache, 10,
                           static_cast<int>(cli.get_int("jobs", 1))),
        "Figure 2: normalized energy and EDP vs gear set (MAX)",
        "fig2_gearset_size.csv");
    return 0;
  } catch (const pals::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
