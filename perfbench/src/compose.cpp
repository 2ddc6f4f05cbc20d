#include "compose.hpp"

#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "analysis/bounds.hpp"
#include "analysis/journal.hpp"
#include "core/controller_pipeline.hpp"
#include "power/gearset.hpp"
#include "serve/protocol.hpp"
#include "trace/transform.hpp"
#include "util/error.hpp"

namespace perfbench {

pals::PipelineConfig cell_config(const pals::PipelineConfig& base,
                                 const pals::Scenario& scenario) {
  pals::PipelineConfig config = base;
  config.algorithm.algorithm = scenario.algorithm;
  config.algorithm.gear_set = pals::gear_set_by_name(scenario.gear_set);
  config.controller.kind = scenario.controller.empty()
                               ? pals::ControllerKind::kStatic
                               : pals::controller_by_name(scenario.controller);
  config.lint = false;
  pals::set_beta(config, scenario.beta);
  return config;
}

namespace {

using Clock = std::chrono::steady_clock;
using Scope = Tracer::Scope;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void count_replay(const pals::ReplayResult& result, Counts& counts) {
  counts.replay_events += result.simulated_events;
  counts.replay_records += result.messages.size() + result.collectives.size();
  counts.queue_peak = std::max<std::uint64_t>(counts.queue_peak,
                                              result.sim_queue_peak);
}

/// run_pipeline(trace, config, baseline) for a fault-free, whole-run
/// configuration, call by call. Only the fields flatten_result reads are
/// filled; the baseline is not copied.
pals::PipelineResult compose_pipeline(const pals::Trace& trace,
                                      const pals::ReplayResult& baseline,
                                      const pals::PipelineConfig& config,
                                      Tracer& tracer, Counts& counts) {
  if (config.controller.kind != pals::ControllerKind::kStatic) {
    pals::ControllerPipelineResult run;
    {
      Scope span(tracer, "core.controller");
      run = pals::run_controller_pipeline(trace, config, baseline);
    }
    counts.controller_iterations += run.controller.iterations;
    counts.controller_switches += run.controller.switches;
    count_replay(run.pipeline.scaled_replay, counts);
    counts.controller_replay_events += run.pipeline.scaled_replay.simulated_events;
    return std::move(run.pipeline);
  }
  const pals::PowerModel power(config.power);
  pals::PipelineResult result;
  result.baseline_time = baseline.makespan;
  {
    Scope span(tracer, "power.energy");
    result.baseline_energy = power.baseline_energy(baseline.timeline);
  }
  result.computation_time = baseline.compute_time;
  result.load_balance = pals::load_balance(result.computation_time);
  result.parallel_efficiency =
      pals::parallel_efficiency(result.computation_time, result.baseline_time);
  {
    Scope span(tracer, "core.assign");
    result.assignment =
        config.algorithm.algorithm == pals::Algorithm::kEnergyOptimalMax
            ? pals::assign_frequencies_energy_optimal(
                  result.computation_time, config.algorithm, config.power)
            : pals::assign_frequencies(result.computation_time,
                                       config.algorithm);
  }
  std::vector<double> factors;
  factors.reserve(result.assignment.gears.size());
  for (const pals::Gear& gear : result.assignment.gears)
    factors.push_back(power.time_scale(gear.frequency_ghz));
  result.overclocked_fraction = result.assignment.overclocked_fraction(
      config.algorithm.nominal_fmax_ghz);
  pals::Trace scaled;
  {
    Scope span(tracer, "trace.rescale");
    scaled = pals::scale_compute(trace, factors);
  }
  counts.rescale_bytes += scaled.total_events() * sizeof(pals::Event);
  pals::ReplayResult replayed;
  {
    Scope span(tracer, "replay.scaled");
    replayed = pals::replay(scaled, config.replay);
  }
  count_replay(replayed, counts);
  result.scaled_time = replayed.makespan;
  {
    Scope span(tracer, "power.energy");
    result.scaled_energy =
        power.total_energy(replayed.timeline, result.assignment.gears);
  }
  return result;
}

pals::SweepOptions sweep_options(const SweepWorkload& workload) {
  pals::SweepOptions options;
  options.iterations = workload.iterations;
  return options;
}

/// Seconds of the pipeline's own parts among the spans recorded since
/// span index `first`.
double pipeline_part_seconds(const Tracer& tracer, std::size_t first) {
  static const std::set<std::string> parts = {
      "power.energy", "core.assign", "trace.rescale", "replay.scaled",
      "core.controller"};
  double seconds = 0.0;
  for (std::size_t i = first; i < tracer.spans().size(); ++i)
    if (parts.contains(tracer.spans()[i].name))
      seconds += tracer.spans()[i].seconds();
  return seconds;
}

/// run_pipeline on a composed cell's inputs, timed; its row must equal
/// the composed one.
void time_run_pipeline(const pals::Trace& trace,
                       const pals::ReplayResult& baseline,
                       const pals::PipelineConfig& config,
                       const std::string& display, const std::string& variant,
                       const std::string& composed_row, const Tracer& tracer,
                       std::size_t first_span, Pass& pass) {
  const auto call = Clock::now();
  const pals::PipelineResult result = pals::run_pipeline(trace, config, baseline);
  const double seconds = seconds_since(call);
  pass.call_seconds.push_back(seconds);
  if (tracer.enabled())
    pass.glue_seconds.push_back(seconds -
                                pipeline_part_seconds(tracer, first_span));
  if (pals::serve::csv_data_line(pals::flatten_result(result, display, variant)) !=
      composed_row)
    ++pass.pipeline_mismatches;
}

}  // namespace

Pass compose_sweep(const SweepWorkload& workload,
                   const std::string& journal_path, Tracer& tracer,
                   bool run_pipeline) {
  const auto start = Clock::now();
  const pals::SweepOptions options = sweep_options(workload);
  const std::vector<pals::Scenario>& scenarios = workload.scenarios;
  Pass pass;
  pass.rows.resize(scenarios.size());

  std::optional<pals::JournalWriter> journal;
  if (!journal_path.empty()) {
    pals::JournalHeader header;
    header.config_hash = pals::sweep_config_hash(scenarios, options);
    header.scenarios = scenarios.size();
    journal.emplace(pals::JournalWriter::create(journal_path, header));
  }

  // Traces and baselines are built once per workload, as run_sweep
  // shares them.
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    auto& group = groups[scenarios[i].workload];
    if (group.empty()) order.push_back(scenarios[i].workload);
    group.push_back(i);
  }
  for (const std::string& spec : order) {
    const pals::WorkloadRef ref =
        pals::resolve_workload(spec, options.iterations);
    pals::Trace trace;
    {
      Scope span(tracer, "workloads.build");
      trace = ref.build();
    }
    pass.counts.workload_events += trace.total_events();
    pals::ReplayResult baseline;
    {
      Scope span(tracer, "replay.baseline");
      baseline = pals::replay(trace, options.base.replay);
    }
    count_replay(baseline, pass.counts);

    for (const std::size_t i : groups[spec]) {
      const pals::Scenario& scenario = scenarios[i];
      const pals::PipelineConfig config = cell_config(options.base, scenario);
      const std::size_t first_span = tracer.spans().size();
      {
        Scope cell(tracer, "bench.cell");
        pals::bounds::ScenarioBounds bounds;
        {
          Scope span(tracer, "analysis.bounds");
          bounds = pals::bounds::analyze(trace, config, &baseline);
        }
        const pals::PipelineResult result =
            compose_pipeline(trace, baseline, config, tracer, pass.counts);
        {
          Scope span(tracer, "analysis.bounds");
          const auto violations = pals::bounds::check_soundness(
              bounds, result.scaled_time, result.scaled_energy);
          if (!violations.empty())
            throw pals::Error("bounds soundness oracle: " +
                              violations.front().to_text());
        }
        pals::ExperimentRow row;
        {
          Scope span(tracer, "analysis.render");
          row = pals::flatten_result(result, ref.display,
                                     scenario.variant_label());
          pass.rows[i] = pals::serve::csv_data_line(row);
        }
        if (journal.has_value()) {
          Scope span(tracer, "analysis.journal_append");
          pals::JournalRecord record;
          record.kind = pals::JournalRecord::Kind::kRow;
          record.index = i;
          record.row = row;
          journal->append(record);
        }
      }
      if (run_pipeline)
        time_run_pipeline(trace, baseline, config, ref.display,
                          scenario.variant_label(), pass.rows[i], tracer,
                          first_span, pass);
    }
  }
  if (journal.has_value()) {
    pass.counts.journal_records = journal->records_appended();
    journal.reset();
    pass.counts.journal_bytes = std::filesystem::file_size(journal_path);
  }
  pass.wall_seconds = seconds_since(start);
  return pass;
}

namespace {

/// The numeric platform overrides the serve workload sends, applied as
/// QueryEngine applies them.
void apply_platform(pals::PipelineConfig& config,
                    const pals::serve::Request& request) {
  for (const auto& [key, value] : request.platform) {
    if (key == "latency") config.replay.platform.latency = value;
    else if (key == "bandwidth") config.replay.platform.bandwidth = value;
    else throw pals::Error("benchmark does not compose override '" + key + "'");
  }
}

void record_cache_stats(const pals::serve::WarmCache& cache, Counts& counts) {
  const pals::serve::WarmCacheStats stats = cache.stats();
  counts.cache_hits = stats.hits;
  counts.cache_misses = stats.misses;
  counts.cache_evictions = stats.evictions;
}

}  // namespace

Pass compose_serve(const std::vector<std::string>& lines,
                   std::size_t cache_bytes, Tracer& tracer, bool run_pipeline) {
  const auto start = Clock::now();
  const pals::serve::QueryEngineOptions defaults;
  pals::serve::WarmCache cache(cache_bytes);
  Pass pass;
  pass.rows.reserve(lines.size());
  for (const std::string& line : lines) {
    const std::size_t first_span = tracer.spans().size();
    std::optional<Scope> query(std::in_place, tracer, "bench.query");
    pals::serve::Request request;
    {
      Scope span(tracer, "serve.parse");
      request = pals::serve::parse_request(line);
    }
    const pals::WorkloadRef ref = pals::resolve_workload(
        request.workload, request.iterations > 0 ? request.iterations
                                                 : defaults.default_iterations);
    pals::PipelineConfig config = defaults.base;
    apply_platform(config, request);
    config.algorithm.algorithm = pals::algorithm_by_name(request.algorithm);
    config.algorithm.gear_set = pals::gear_set_by_name(request.gear_set);
    config.controller.kind = pals::controller_by_name(request.controller);
    config.lint = false;
    pals::set_beta(config, request.beta);

    std::shared_ptr<const pals::serve::WarmEntry> warm;
    {
      Scope span(tracer, "serve.cache_get");
      warm = cache.get(request.baseline_key(ref.key), [&] {
        Scope build(tracer, "serve.cache_build");
        pals::serve::WarmEntry entry;
        {
          Scope inner(tracer, "workloads.build");
          entry.trace = ref.build();
        }
        pass.counts.workload_events += entry.trace.total_events();
        {
          Scope inner(tracer, "replay.baseline");
          entry.baseline = pals::replay(entry.trace, config.replay);
        }
        count_replay(entry.baseline, pass.counts);
        pass.counts.cache_entry_bytes += pals::serve::approx_entry_bytes(entry);
        return entry;
      });
    }
    const pals::PipelineResult result =
        compose_pipeline(warm->trace, warm->baseline, config, tracer,
                         pass.counts);
    pals::Scenario scenario;
    scenario.workload = request.workload;
    scenario.gear_set = request.gear_set;
    scenario.algorithm = config.algorithm.algorithm;
    scenario.beta = request.beta;
    scenario.controller = request.controller;
    pals::ExperimentRow row;
    {
      Scope span(tracer, "analysis.render");
      row = pals::flatten_result(result, ref.display, scenario.variant_label());
      pass.rows.push_back(pals::serve::csv_data_line(row));
    }
    {
      Scope span(tracer, "serve.render");
      const std::string response =
          pals::serve::render_query_ok(request.id, row, 0.0);
      if (response.empty()) throw pals::Error("empty response");
    }
    query.reset();
    if (run_pipeline)
      time_run_pipeline(warm->trace, warm->baseline, config, ref.display,
                        scenario.variant_label(), pass.rows.back(), tracer,
                        first_span, pass);
  }
  record_cache_stats(cache, pass.counts);
  pass.wall_seconds = seconds_since(start);
  return pass;
}

Pass reference_serve(const std::vector<std::string>& lines,
                     std::size_t cache_bytes) {
  const auto start = Clock::now();
  pals::serve::WarmCache cache(cache_bytes);
  pals::serve::QueryEngine engine(pals::serve::QueryEngineOptions{}, cache);
  Pass pass;
  for (const std::string& line : lines) {
    const pals::serve::Request request = pals::serve::parse_request(line);
    const auto call = Clock::now();
    const pals::ExperimentRow row = engine.execute(request, 0.0);
    pass.call_seconds.push_back(seconds_since(call));
    pass.rows.push_back(pals::serve::csv_data_line(row));
  }
  record_cache_stats(cache, pass.counts);
  pass.wall_seconds = seconds_since(start);
  return pass;
}

}  // namespace perfbench
