#include "analysis/figures.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/sweep.hpp"
#include "replay/replay.hpp"
#include "util/strings.hpp"

namespace pals {

std::vector<ExperimentRow> table3_rows(TraceCache& cache, int iterations) {
  std::vector<ExperimentRow> rows;
  for (const BenchmarkInstance& inst : paper_benchmarks(iterations)) {
    const Trace& trace = cache.get(inst);
    const ReplayResult r = replay(trace, ReplayConfig{});
    ExperimentRow row;
    row.instance = inst.name;
    row.variant = "paper LB " + format_percent(inst.paper_lb) + ", PE " +
                  format_percent(inst.paper_pe);
    row.load_balance = load_balance(r.compute_time);
    row.parallel_efficiency =
        parallel_efficiency(r.compute_time, r.makespan);
    row.normalized_energy = 1.0;
    row.normalized_time = 1.0;
    row.normalized_edp = 1.0;
    rows.push_back(row);
  }
  return rows;
}

namespace {

/// Every (instance, variant) cell, instance-major, on the sweep engine:
/// one baseline per workload, the bounds soundness oracle on every cell.
std::vector<ExperimentRow> sweep_rows(
    TraceCache& cache, int iterations, const std::vector<Scenario>& variants,
    const std::vector<BenchmarkInstance>& instances = paper_benchmarks()) {
  std::vector<Scenario> scenarios;
  for (const BenchmarkInstance& inst : instances) {
    for (Scenario scenario : variants) {
      scenario.workload = inst.name;
      scenarios.push_back(std::move(scenario));
    }
  }
  SweepOptions options;
  options.iterations = iterations;
  options.trace_cache = &cache;
  return run_sweep(scenarios, options).rows;
}

}  // namespace

std::vector<ExperimentRow> figure2_rows(TraceCache& cache, int iterations) {
  std::vector<Scenario> variants = {{"", "continuous-unlimited"},
                                    {"", "continuous-limited"}};
  for (int gears = 2; gears <= 15; ++gears)
    variants.push_back({"", "uniform-" + std::to_string(gears)});
  return sweep_rows(cache, iterations, variants, figure2_benchmarks());
}

std::vector<ExperimentRow> figure3_rows(TraceCache& cache, int iterations) {
  std::vector<ExperimentRow> rows = sweep_rows(
      cache, iterations,
      {{"", "continuous-unlimited"}, {"", "uniform-2"}, {"", "uniform-6"}});
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ExperimentRow& a, const ExperimentRow& b) {
                     return a.load_balance < b.load_balance;
                   });
  return rows;
}

std::vector<ExperimentRow> figure4_rows(TraceCache& cache, int iterations) {
  std::vector<Scenario> variants;
  for (int gears = 3; gears <= 7; ++gears)
    variants.push_back({"", "exponential-" + std::to_string(gears)});
  return sweep_rows(cache, iterations, variants);
}

std::vector<ExperimentRow> figure5_rows(TraceCache& cache, int iterations) {
  std::vector<Scenario> variants;
  for (const double beta : {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
    variants.push_back({"", "uniform-6", Algorithm::kMax, beta,
                        "beta=" + format_fixed(beta, 1)});
  return sweep_rows(cache, iterations, variants);
}

std::vector<ExperimentRow> figure6_rows(TraceCache& cache, int iterations) {
  std::vector<Scenario> variants;
  for (int percent = 0; percent <= 90; percent += 10)
    variants.push_back({"", "uniform-6", Algorithm::kMax, 0.5,
                        "static=" + std::to_string(percent) + "%", "static",
                        {{"static_fraction", percent / 100.0}}});
  return sweep_rows(cache, iterations, variants);
}

std::vector<ExperimentRow> figure7_rows(TraceCache& cache, int iterations) {
  std::vector<Scenario> variants;
  for (const double ratio : {1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0})
    variants.push_back({"", "uniform-6", Algorithm::kMax, 0.5,
                        "ratio=" + format_fixed(ratio, 2), "static",
                        {{"activity_ratio", ratio}}});
  return sweep_rows(cache, iterations, variants);
}

std::vector<ExperimentRow> figure8_rows(TraceCache& cache, int iterations) {
  std::vector<Scenario> variants;
  for (const std::string oc : {"10", "20"})
    variants.push_back(
        {"", "limited-oc" + oc, Algorithm::kAvg, 0.5, "overclock+" + oc + "%"});
  return sweep_rows(cache, iterations, variants);
}

std::vector<ExperimentRow> figure9_rows(TraceCache& cache, int iterations) {
  return sweep_rows(
      cache, iterations,
      {{"", "avg-discrete", Algorithm::kAvg, 0.5, "uniform-6+2.6GHz"}});
}

std::vector<ExperimentRow> figure10_rows(TraceCache& cache, int iterations) {
  return sweep_rows(
      cache, iterations,
      {{"", "uniform-6", Algorithm::kMax, 0.5, "MAX uniform-6"},
       {"", "avg-discrete", Algorithm::kAvg, 0.5, "AVG uniform-6+2.6GHz"}});
}

std::string rows_to_markdown(const std::vector<ExperimentRow>& rows) {
  std::ostringstream os;
  os << "| instance | variant | LB | PE | energy | time | EDP | "
        "overclocked |\n"
     << "|---|---|---|---|---|---|---|---|\n";
  for (const ExperimentRow& r : rows) {
    os << "| " << r.instance << " | " << r.variant << " | "
       << format_percent(r.load_balance) << " | "
       << format_percent(r.parallel_efficiency) << " | "
       << format_percent(r.normalized_energy) << " | "
       << format_percent(r.normalized_time) << " | "
       << format_percent(r.normalized_edp) << " | "
       << format_percent(r.overclocked_fraction) << " |\n";
  }
  return os.str();
}

}  // namespace pals
