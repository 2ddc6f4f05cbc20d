#include "analysis/experiments.hpp"

#include <iostream>
#include <sstream>

#include "util/csv.hpp"
#include "util/kvconfig.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

namespace pals {

PipelineConfig default_pipeline_config(const GearSet& gear_set,
                                       Algorithm algorithm) {
  PipelineConfig config;
  config.algorithm.algorithm = algorithm;
  config.algorithm.gear_set = gear_set;
  config.algorithm.beta = 0.5;
  config.algorithm.nominal_fmax_ghz = kPaperFmaxGhz;
  config.power.activity_ratio = 1.5;
  config.power.static_fraction = 0.2;
  config.power.beta = 0.5;
  config.power.reference =
      VoltageModel::paper_default().gear(kPaperFmaxGhz);
  return config;
}

WorkloadRef resolve_workload(const std::string& spec, int default_iterations) {
  if (spec.find(':') == std::string::npos) {
    const auto instance = benchmark_by_name(spec, default_iterations);
    PALS_CHECK_MSG(instance.has_value(),
                   "unknown workload '"
                       << spec
                       << "' (not a Table 3 instance; inline specs use "
                          "family:ranks:lb[:iterations])");
    return WorkloadRef{spec + ":" + std::to_string(default_iterations), spec,
                       [inst = *instance] { return inst.make(); }};
  }
  const std::vector<std::string> parts = split(spec, ':');
  PALS_CHECK_MSG(parts.size() == 3 || parts.size() == 4,
                 "bad workload spec '" << spec
                                       << "' (family:ranks:lb[:iterations])");
  WorkloadConfig config;
  config.ranks = static_cast<Rank>(parse_int(parts[1]));
  config.target_lb = parse_double(parts[2]);
  config.iterations =
      parts.size() == 4 ? static_cast<int>(parse_int(parts[3]))
                        : default_iterations;
  PALS_CHECK_MSG(config.ranks > 0, "workload spec '" << spec
                                                     << "': ranks must be > 0");
  PALS_CHECK_MSG(config.target_lb > 0.0 && config.target_lb <= 1.0,
                 "workload spec '" << spec << "': lb must be in (0, 1]");
  PALS_CHECK_MSG(config.iterations > 0,
                 "workload spec '" << spec << "': iterations must be > 0");
  const std::string family = parts[0];
  const auto factory = workload_factory(family);  // throws on unknown family
  // Canonical key includes the resolved iteration count so grids with
  // different defaults never collide in a shared cache. The display name
  // is the same fully-qualified spec: two instances of one family that
  // differ only in lb or iteration count must stay distinct in result
  // rows — per-instance groupings (the Pareto front) key on it.
  const std::string key = parts.size() == 4
                              ? spec
                              : spec + ":" + std::to_string(config.iterations);
  return WorkloadRef{key, key,
                     [factory, config] { return factory(config); }};
}

void set_beta(PipelineConfig& config, double beta) {
  config.algorithm.beta = beta;
  config.power.beta = beta;
}

namespace {

/// Every whole number in [0, 2^53] is exact in a double.
constexpr double kExactIntegerMax = 9007199254740992.0;
/// Machine-sized bound on the platform's slot counts: the replay holds
/// one bus slot per bus and two allocators of links_per_node slots per
/// rank, so an int32-sized value would ask for gigabytes. Shipped configs
/// use at most 16.
constexpr double kMaxSlots = 4096.0;

/// The settings table: every config-file key, the nine a serve query may
/// override first.
const Setting kSettings[] = {
    {"latency", true, 0.0,
     [](PipelineConfig& c, double v) { c.replay.platform.latency = v; }},
    {"bandwidth", true, 0.0,
     [](PipelineConfig& c, double v) { c.replay.platform.bandwidth = v; }},
    {"eager_threshold", true, kExactIntegerMax,
     [](PipelineConfig& c, double v) {
       c.replay.platform.eager_threshold = static_cast<Bytes>(v);
     }},
    {"buses", true, kMaxSlots,
     [](PipelineConfig& c, double v) {
       c.replay.platform.buses = static_cast<std::int32_t>(v);
     }},
    {"links_per_node", true, kMaxSlots,
     [](PipelineConfig& c, double v) {
       c.replay.platform.links_per_node = static_cast<std::int32_t>(v);
     }},
    {"collective_scale", true, 0.0,
     [](PipelineConfig& c, double v) {
       c.replay.platform.collective_scale = v;
     }},
    {"static_fraction", true, 0.0,
     [](PipelineConfig& c, double v) { c.power.static_fraction = v; }},
    {"activity_ratio", true, 0.0,
     [](PipelineConfig& c, double v) { c.power.activity_ratio = v; }},
    {"idle_scale", true, 0.0,
     [](PipelineConfig& c, double v) { c.power.idle_scale = v; }},
    {"beta", false, 0.0, [](PipelineConfig& c, double v) { set_beta(c, v); }},
    {"transition_latency", false, 0.0,
     [](PipelineConfig& c, double v) { c.controller.transition_latency = v; }},
    {"transition_energy", false, 0.0,
     [](PipelineConfig& c, double v) { c.controller.transition_energy = v; }},
    {"slack_threshold", false, 0.0,
     [](PipelineConfig& c, double v) { c.controller.slack_threshold = v; }},
    {"hysteresis", false, 0.0,
     [](PipelineConfig& c, double v) { c.controller.hysteresis = v; }},
    {"ewma_alpha", false, 0.0,
     [](PipelineConfig& c, double v) { c.controller.ewma_alpha = v; }},
};

}  // namespace

const Setting* find_setting(const std::string& key) {
  for (const Setting& setting : kSettings)
    if (key == setting.key) return &setting;
  return nullptr;
}

void apply_setting(PipelineConfig& config, const std::string& key,
                   double value) {
  const Setting* setting = find_setting(key);
  if (setting == nullptr) throw Error("unknown config key '" + key + "'");
  const double max = setting->max_integer;
  // Range before the cast: casting an out-of-range double to an integer
  // is undefined.
  if (max != 0.0 &&
      !(value >= 0.0 && value <= max &&
        value == static_cast<double>(static_cast<long long>(value))))
    throw Error("setting '" + key + "' must be an integer within [0, " +
                std::to_string(static_cast<long long>(max)) + "], not " +
                format_roundtrip(value));
  setting->set(config, value);
}

void apply_config_file(PipelineConfig& config, const std::string& path) {
  const KvConfig kv = KvConfig::parse_file(path);
  for (const std::string& key : kv.keys())
    apply_setting(config, key, kv.get_double(key));
  config.validate();
}

ExperimentRow flatten_result(const PipelineResult& result,
                             const std::string& instance,
                             const std::string& variant) {
  ExperimentRow row;
  row.instance = instance;
  row.variant = variant;
  row.load_balance = result.load_balance;
  row.parallel_efficiency = result.parallel_efficiency;
  row.normalized_energy = result.normalized_energy();
  row.normalized_time = result.normalized_time();
  row.normalized_edp = result.normalized_edp();
  row.overclocked_fraction = result.overclocked_fraction;
  return row;
}

ExperimentRow run_experiment(const Trace& trace, const std::string& instance,
                             const std::string& variant,
                             const PipelineConfig& config) {
  return flatten_result(run_pipeline(trace, config), instance, variant);
}

const Trace& TraceCache::get(const BenchmarkInstance& instance) {
  // resolve_workload's key for the same name and count.
  return get(instance.name + ":" + std::to_string(instance.config.iterations),
             [&instance] { return instance.make(); });
}

const Trace& TraceCache::get(const std::string& key,
                             const std::function<Trace()>& build) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = traces_.find(key);
  if (it != traces_.end()) return it->second;
  return traces_.emplace(key, build()).first->second;
}

void print_rows(const std::vector<ExperimentRow>& rows,
                const std::string& title, const std::string& csv_path) {
  std::cout << "\n== " << title << " ==\n";
  TextTable table({"instance", "variant", "LB", "PE", "energy", "time", "EDP",
                   "overclocked"});
  for (const ExperimentRow& r : rows) {
    table.add_row({r.instance, r.variant, format_percent(r.load_balance),
                   format_percent(r.parallel_efficiency),
                   format_percent(r.normalized_energy),
                   format_percent(r.normalized_time),
                   format_percent(r.normalized_edp),
                   format_percent(r.overclocked_fraction)});
  }
  table.print(std::cout);

  if (!csv_path.empty()) {
    write_rows_csv(rows, csv_path);
    std::cout << "csv written to " << csv_path << '\n';
  }
}

std::string rows_to_csv(const std::vector<ExperimentRow>& rows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row({"instance", "variant", "load_balance", "parallel_efficiency",
           "normalized_energy", "normalized_time", "normalized_edp",
           "overclocked_fraction"});
  for (const ExperimentRow& r : rows) {
    csv.field(r.instance)
        .field(r.variant)
        .field(r.load_balance)
        .field(r.parallel_efficiency)
        .field(r.normalized_energy)
        .field(r.normalized_time)
        .field(r.normalized_edp)
        .field(r.overclocked_fraction);
    csv.end_row();
  }
  return out.str();
}

void write_rows_csv(const std::vector<ExperimentRow>& rows,
                    const std::string& path) {
  atomic_write_file(path, rows_to_csv(rows));
}

}  // namespace pals
