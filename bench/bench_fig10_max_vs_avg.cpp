// Figure 10 of the paper: comparison of the MAX and AVG algorithms
// (energy, time, EDP). MAX wins on CPU energy; AVG wins on execution
// time, and therefore on whole-system energy potential. Runs on the
// parallel sweep engine; pass --jobs=N to use N worker threads (same
// output for all N).
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
        pals::figure10_rows(cache, 10,
                            static_cast<int>(cli.get_int("jobs", 1))),
        "Figure 10: comparison of MAX and AVG algorithms",
        "fig10_max_vs_avg.csv");
    return 0;
  } catch (const pals::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
