// The paper's figures as library functions.
//
// Each function runs one figure's scenario list through the serial sweep
// engine (analysis/sweep.hpp: one baseline per workload, the bounds
// soundness oracle on every cell) and returns the rows the paper plots.
// `cache` is keyed by instance and iteration count, so the functions may
// share one; `iterations` is the per-trace count. tools/pals_reproduce
// chains them all into REPORT.md and writes each figure's rows as the
// CSV under results/.
#pragma once

#include <string>
#include <vector>

#include "analysis/experiments.hpp"

namespace pals {

/// Table 3: LB/PE characterization of every instance (variant column
/// holds the paper's value for comparison). Replays each baseline only.
std::vector<ExperimentRow> table3_rows(TraceCache& cache, int iterations = 10);

/// Figure 2: energy/EDP vs gear-set size (continuous sets + uniform
/// 2..15) over the paper's five-instance subset.
std::vector<ExperimentRow> figure2_rows(TraceCache& cache, int iterations = 10);

/// Figure 3: energy vs load balance for unlimited/2-gear/6-gear sets,
/// sorted by load balance.
std::vector<ExperimentRow> figure3_rows(TraceCache& cache, int iterations = 10);

/// Figure 4: exponential sets with 3..7 gears.
std::vector<ExperimentRow> figure4_rows(TraceCache& cache, int iterations = 10);

/// Figure 5: beta swept 0.3..1.0 (uniform-6).
std::vector<ExperimentRow> figure5_rows(TraceCache& cache, int iterations = 10);

/// Figure 6: static power fraction swept 0..90 % (uniform-6).
std::vector<ExperimentRow> figure6_rows(TraceCache& cache, int iterations = 10);

/// Figure 7: activity-factor ratio swept 1.5..3.0 (uniform-6).
std::vector<ExperimentRow> figure7_rows(TraceCache& cache, int iterations = 10);

/// Figure 8: AVG with the limited continuous set at +10 %/+20 % OC.
std::vector<ExperimentRow> figure8_rows(TraceCache& cache, int iterations = 10);

/// Figure 9: AVG with uniform-6 + (2.6 GHz, 1.6 V).
std::vector<ExperimentRow> figure9_rows(TraceCache& cache, int iterations = 10);

/// Figure 10: MAX vs AVG side by side.
std::vector<ExperimentRow> figure10_rows(TraceCache& cache, int iterations = 10);

/// Render rows as a GitHub-flavoured Markdown table.
std::string rows_to_markdown(const std::vector<ExperimentRow>& rows);

}  // namespace pals
