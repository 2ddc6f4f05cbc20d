// Experiment-runner helpers shared by the bench binaries.
//
// Every figure/table in the paper is a sweep of run_pipeline over the
// benchmark set with one knob varied. These helpers build configurations,
// run sweeps (with trace caching per instance) and format result rows.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "workloads/registry.hpp"

namespace pals {

/// Pipeline configuration with the paper's default parameters:
/// MAX algorithm, beta 0.5, static fraction 0.2, activity ratio 1.5,
/// reference gear (2.3 GHz, 1.5 V), default platform model.
PipelineConfig default_pipeline_config(const GearSet& gear_set,
                                       Algorithm algorithm = Algorithm::kMax);

/// Set beta consistently in both the algorithm and the power model.
void set_beta(PipelineConfig& config, double beta);

/// One entry of the settings table: a platform, power or controller knob
/// of a config file. The nine platform/power knobs are also what a serve
/// query may override (serve::Request::platform).
struct Setting {
  const char* key;
  bool query_overridable;
  /// Integer settings take whole values in [0, max_integer]; 0 marks a
  /// real-valued one (range-checked by PipelineConfig::validate).
  double max_integer;
  void (*set)(PipelineConfig& config, double value);
};

/// The settings table entry named `key`, or nullptr.
const Setting* find_setting(const std::string& key);

/// Set `key` to `value` through the settings table. Throws pals::Error on
/// an unknown key and on a non-integral, negative or out-of-range value
/// of an integer setting.
void apply_setting(PipelineConfig& config, const std::string& key,
                   double value);

/// Overlay a key = value config file (util/kvconfig.hpp) onto a pipeline
/// configuration, one apply_setting per key. Unknown keys throw (typo
/// detection).
void apply_config_file(PipelineConfig& config, const std::string& path);

/// A resolved workload: cache key, display name and trace builder.
struct WorkloadRef {
  std::string key;
  std::string display;
  std::function<Trace()> build;
};

/// Resolve a registry instance name ("CG-32") or an inline spec
/// "family:ranks:lb[:iterations]" (e.g. "lu:32:0.93:6") to a WorkloadRef.
/// Registry names and specs without an iteration count use
/// `default_iterations`; the cache key always carries the resolved count
/// ("CG-32:10") so grids and queries with different counts never collide;
/// a registry instance's display name stays its name. Throws pals::Error
/// on unknown names or malformed specs.
WorkloadRef resolve_workload(const std::string& spec, int default_iterations);

/// One measured row of an experiment.
struct ExperimentRow {
  std::string instance;     ///< e.g. "CG-32"
  std::string variant;      ///< e.g. gear-set label or parameter value
  double load_balance = 0.0;
  double parallel_efficiency = 0.0;
  double normalized_energy = 0.0;
  double normalized_time = 0.0;
  double normalized_edp = 0.0;
  double overclocked_fraction = 0.0;
};

/// Flatten a pipeline result into a row. run_experiment composes
/// run_pipeline with this; the sweep engine calls the two pieces itself
/// so the raw scaled time/energy can also feed the bounds soundness
/// oracle (analysis/bounds.hpp) before the result is flattened.
ExperimentRow flatten_result(const PipelineResult& result,
                             const std::string& instance,
                             const std::string& variant);

/// Runs `config` on a prebuilt trace and flattens the result.
ExperimentRow run_experiment(const Trace& trace, const std::string& instance,
                             const std::string& variant,
                             const PipelineConfig& config);

/// Caches generated traces by workload key (resolve_workload's, which
/// carries the iteration count) so multi-variant sweeps build each
/// workload once. Thread-safe: the sweep engine shares one cache
/// across workers (std::map never invalidates references, so the returned
/// Trace& stays valid while the cache lives).
class TraceCache {
public:
  /// Keyed as resolve_workload keys the instance's name and count.
  const Trace& get(const BenchmarkInstance& instance);
  /// Generic keyed access for non-registry workloads: builds (under the
  /// cache lock) and memoizes `build()` on first use of `key`.
  const Trace& get(const std::string& key,
                   const std::function<Trace()>& build);

private:
  std::mutex mutex_;
  std::map<std::string, Trace> traces_;
};

/// Render rows as an aligned table (one line per row) to stdout and, when
/// `csv_path` is non-empty, as CSV.
void print_rows(const std::vector<ExperimentRow>& rows,
                const std::string& title, const std::string& csv_path = "");

/// The exact CSV emitted by print_rows, as a string. The formatting is
/// shared so sweep outputs can be compared byte-for-byte across thread
/// counts.
std::string rows_to_csv(const std::vector<ExperimentRow>& rows);

/// Write rows_to_csv(rows) to `path` (throws on I/O failure).
void write_rows_csv(const std::vector<ExperimentRow>& rows,
                    const std::string& path);

}  // namespace pals
