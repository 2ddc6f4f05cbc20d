#include "analysis/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/bounds.hpp"
#include "analysis/pareto.hpp"
#include "core/controllers.hpp"
#include "lint/lint.hpp"
#include "obs/record.hpp"
#include "obs/span.hpp"
#include "power/gearset.hpp"
#include "replay/replay.hpp"
#include "shard/partition.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/kvconfig.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace pals {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Background reporter for SweepOptions::progress_stream: wakes every
/// interval, reads the completion counter and prints one whole line.
/// Joined (with a final line) before run_sweep returns.
class ProgressMonitor {
 public:
  ProgressMonitor(std::ostream* out, double interval_seconds,
                  std::size_t total, const obs::Counter& completed,
                  std::uint64_t baseline)
      : out_(out), total_(total), completed_(completed), baseline_(baseline) {
    if (out_ == nullptr) return;
    start_ = Clock::now();
    thread_ = std::thread([this, interval_seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!done_) {
        stop_.wait_for(lock,
                       std::chrono::duration<double>(interval_seconds));
        if (done_) break;
        print_line();
      }
    });
  }

  ~ProgressMonitor() {
    if (out_ == nullptr) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    stop_.notify_all();
    thread_.join();
    print_line();  // final "N/N" line
  }

  ProgressMonitor(const ProgressMonitor&) = delete;
  ProgressMonitor& operator=(const ProgressMonitor&) = delete;

 private:
  void print_line() {
    const std::uint64_t done = completed_.value() - baseline_;
    const double elapsed = seconds_since(start_);
    std::string line = "sweep: " + std::to_string(done) + "/" +
                       std::to_string(total_) + " scenarios, elapsed " +
                       format_fixed(elapsed, 1) + "s";
    if (done > 0 && done < total_) {
      const double eta =
          elapsed / static_cast<double>(done) *
          static_cast<double>(total_ - done);
      line += ", ETA " + format_fixed(eta, 1) + "s";
    }
    line += '\n';
    out_->write(line.data(), static_cast<std::streamsize>(line.size()));
    out_->flush();
  }

  std::ostream* out_;
  std::size_t total_;
  const obs::Counter& completed_;
  std::uint64_t baseline_;
  Clock::time_point start_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable stop_;
  bool done_ = false;
};

/// Background liveness beater for SweepOptions::heartbeat_interval_seconds
/// (docs/sharding.md): wakes every interval and invokes the supplied
/// journal-append callback. Joined before run_sweep returns, so no beat
/// can outlive the journal.
class HeartbeatMonitor {
 public:
  HeartbeatMonitor(double interval_seconds, std::function<void()> beat)
      : beat_(std::move(beat)) {
    if (interval_seconds <= 0.0 || !beat_) return;
    active_ = true;
    thread_ = std::thread([this, interval_seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!done_) {
        stop_.wait_for(lock, std::chrono::duration<double>(interval_seconds));
        if (done_) break;
        lock.unlock();
        beat_();
        lock.lock();
      }
    });
  }

  ~HeartbeatMonitor() {
    if (!active_) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    stop_.notify_all();
    thread_.join();
  }

  HeartbeatMonitor(const HeartbeatMonitor&) = delete;
  HeartbeatMonitor& operator=(const HeartbeatMonitor&) = delete;

 private:
  std::function<void()> beat_;
  bool active_ = false;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable stop_;
  bool done_ = false;
};

std::vector<double> parse_beta_list(const std::string& text) {
  std::vector<double> betas;
  for (const std::string& field : split(text, ','))
    betas.push_back(parse_double(trim(field)));
  return betas;
}

std::vector<std::string> parse_name_list(const std::string& text) {
  std::vector<std::string> names;
  for (const std::string& field : split(text, ','))
    names.emplace_back(trim(field));
  return names;
}

}  // namespace

Algorithm algorithm_by_name(const std::string& name) {
  if (name == "max") return Algorithm::kMax;
  if (name == "avg") return Algorithm::kAvg;
  if (name == "energy-optimal") return Algorithm::kEnergyOptimalMax;
  throw Error("unknown algorithm '" + name +
              "' (try max, avg, energy-optimal)");
}

std::string Scenario::variant_label() const {
  if (!label.empty()) return label;
  std::string derived;
  if (!controller.empty() && controller != "static")
    derived += controller + " ";
  switch (algorithm) {
    case Algorithm::kMax: break;  // the paper's default; no prefix
    case Algorithm::kAvg: derived += "AVG "; break;
    case Algorithm::kEnergyOptimalMax: derived += "EOPT "; break;
  }
  derived += gear_set;
  if (beta != 0.5) derived += " beta=" + format_fixed(beta, 2);
  return derived;
}

PipelineConfig Scenario::cell_config(const PipelineConfig& base) const {
  PipelineConfig config = base;
  config.algorithm.algorithm = algorithm;
  config.algorithm.gear_set = gear_set_by_name(gear_set);
  config.controller.kind = controller.empty() ? ControllerKind::kStatic
                                              : controller_by_name(controller);
  config.lint = false;
  set_beta(config, beta);
  for (const auto& [key, value] : settings) apply_setting(config, key, value);
  return config;
}

SweepGrid SweepGrid::from_file(const std::string& path) {
  const KvConfig kv = KvConfig::parse_file(path);
  kv.require_known_keys({"workloads", "gear_sets", "algorithms", "controllers",
                         "betas", "iterations"});
  SweepGrid grid;
  grid.workloads = parse_name_list(kv.get_string("workloads"));
  grid.gear_sets = parse_name_list(kv.get_string("gear_sets"));
  if (kv.has("algorithms")) {
    grid.algorithms.clear();
    for (const std::string& name : parse_name_list(kv.get_string("algorithms")))
      grid.algorithms.push_back(algorithm_by_name(name));
  }
  if (kv.has("controllers"))
    grid.controllers = parse_name_list(kv.get_string("controllers"));
  if (kv.has("betas")) grid.betas = parse_beta_list(kv.get_string("betas"));
  grid.iterations =
      static_cast<int>(kv.get_int_or("iterations", grid.iterations));
  grid.validate();
  return grid;
}

void SweepGrid::validate() const {
  PALS_CHECK_MSG(!workloads.empty(), "sweep grid has no workloads");
  PALS_CHECK_MSG(!gear_sets.empty(), "sweep grid has no gear sets");
  PALS_CHECK_MSG(!algorithms.empty(), "sweep grid has no algorithms");
  PALS_CHECK_MSG(!controllers.empty(), "sweep grid has no controllers");
  for (const std::string& name : controllers)
    controller_by_name(name);  // throws with the valid options on a typo
  PALS_CHECK_MSG(!betas.empty(), "sweep grid has no betas");
  PALS_CHECK_MSG(iterations > 0, "sweep grid iterations must be > 0");
  for (const double beta : betas)
    PALS_CHECK_MSG(beta > 0.0 && beta <= 1.0,
                   "sweep grid beta " << beta << " outside (0, 1]");
}

std::vector<Scenario> SweepGrid::expand() const {
  validate();
  std::vector<Scenario> scenarios;
  scenarios.reserve(workloads.size() * gear_sets.size() * algorithms.size() *
                    controllers.size() * betas.size());
  for (const std::string& workload : workloads)
    for (const std::string& gear_set : gear_sets)
      for (const Algorithm algorithm : algorithms)
        for (const std::string& controller : controllers)
          for (const double beta : betas)
            scenarios.push_back(
                Scenario{workload, gear_set, algorithm, beta, "", controller});
  return scenarios;
}

std::string ScenarioError::describe() const {
  std::string out = "cell " + std::to_string(index) + " " + workload;
  if (!variant.empty()) out += " [" + variant + "]";
  out += ": " + fault::to_string(error_class);
  if (retries > 0) out += " after " + std::to_string(attempts) + " attempts";
  out += ": " + message;
  return out;
}

std::string SweepStats::to_kv() const {
  std::string out;
  const auto put = [&out](const std::string& key, const std::string& value) {
    out += key + " = " + value + "\n";
  };
  put("scenarios", std::to_string(scenarios));
  put("workloads", std::to_string(workloads));
  put("jobs", std::to_string(jobs));
  put("wall_seconds", format_fixed(wall_seconds, 6));
  put("scenarios_per_second", format_fixed(scenarios_per_second, 6));
  put("baseline_cache_misses", std::to_string(baseline_cache_misses));
  put("baseline_cache_hits", std::to_string(baseline_cache_hits));
  put("baseline_cache_hit_rate", format_fixed(baseline_cache_hit_rate, 6));
  put("scenario_seconds_total", format_fixed(scenario_seconds_total, 6));
  put("scenario_seconds_max", format_fixed(scenario_seconds_max, 6));
  put("quarantined", std::to_string(quarantined));
  put("transient_retries", std::to_string(transient_retries));
  put("backoff_seconds", format_fixed(backoff_seconds, 6));
  put("resumed_cells", std::to_string(resumed_cells));
  put("skipped_cells", std::to_string(skipped_cells));
  put("journal_records", std::to_string(journal_records));
  put("pruned_cells", std::to_string(pruned_cells));
  put("shard_cells_owned", std::to_string(shard_cells_owned));
  put("shard_cells_foreign", std::to_string(shard_cells_foreign));
  put("heartbeats_written", std::to_string(heartbeats_written));
  return out;
}

namespace {

/// Canonical text rendering of everything result-affecting, hashed by
/// sweep_config_hash. Append-only by construction: any change to the
/// format changes every hash, which is exactly the desired effect (a
/// resume across versions with different semantics must be refused).
std::string config_canonical_text(const std::vector<Scenario>& scenarios,
                                  const SweepOptions& options) {
  std::string canon = "pals-sweep-config-v2";
  const auto put = [&canon](const std::string& key, const std::string& value) {
    canon += "|" + key + "=" + value;
  };
  const auto put_d = [&](const std::string& key, double value) {
    put(key, format_roundtrip(value));
  };
  put("iterations", std::to_string(options.iterations));
  put("keep_going", options.keep_going ? "1" : "0");
  put("max_retries", std::to_string(options.retry.max_retries));
  put_d("backoff_base", options.retry.backoff_base);
  put_d("backoff_multiplier", options.retry.backoff_multiplier);
  put_d("backoff_cap", options.retry.backoff_cap);

  const PipelineConfig& base = options.base;
  const PlatformModel& platform = base.replay.platform;
  put_d("latency", platform.latency);
  put_d("bandwidth", platform.bandwidth);
  put("eager_threshold", std::to_string(platform.eager_threshold));
  put("buses", std::to_string(platform.buses));
  put("links_per_node", std::to_string(platform.links_per_node));
  put_d("collective_scale", platform.collective_scale);
  for (const auto& [op, algo] : platform.collective_algorithms)
    put("collective_algo." + std::to_string(static_cast<int>(op)),
        std::to_string(static_cast<int>(algo)));
  canon += "|relative_speed=";
  for (const double speed : base.replay.relative_speed)
    canon += format_roundtrip(speed) + ";";
  put("max_simulated_events", std::to_string(base.replay.max_simulated_events));

  put_d("power.activity_ratio", base.power.activity_ratio);
  put_d("power.static_fraction", base.power.static_fraction);
  put_d("power.beta", base.power.beta);
  put_d("power.reference_f", base.power.reference.frequency_ghz);
  put_d("power.reference_v", base.power.reference.voltage_v);
  put_d("power.idle_scale", base.power.idle_scale);

  put("algorithm", std::to_string(static_cast<int>(base.algorithm.algorithm)));
  put_d("algorithm.beta", base.algorithm.beta);
  put_d("nominal_fmax_ghz", base.algorithm.nominal_fmax_ghz);
  put("snap_policy",
      std::to_string(static_cast<int>(base.algorithm.snap_policy)));
  put("per_phase", base.per_phase ? "1" : "0");
  put("lint", base.lint ? "1" : "0");

  put("controller.kind",
      std::to_string(static_cast<int>(base.controller.kind)));
  put_d("controller.transition_latency", base.controller.transition_latency);
  put_d("controller.transition_energy", base.controller.transition_energy);
  put_d("controller.slack_threshold", base.controller.slack_threshold);
  put_d("controller.hysteresis", base.controller.hysteresis);
  put_d("controller.ewma_alpha", base.controller.ewma_alpha);

  const fault::Injector* faults =
      options.faults != nullptr ? options.faults : base.replay.faults;
  put("faults", faults != nullptr ? faults->plan().describe() : "");

  // Appended only when the feature deviates from the default so every
  // pre-existing journal hash stays valid. Pruning changes which cells
  // produce rows; disabling the oracle changes which cells can fail.
  if (options.prune_bounds) put("prune_bounds", "1");
  if (!options.bounds_oracle) put("bounds_oracle", "0");

  for (const Scenario& s : scenarios) {
    canon += "|scenario=" + s.workload + ";" + s.gear_set + ";" +
             std::to_string(static_cast<int>(s.algorithm)) + ";" +
             format_roundtrip(s.beta) + ";" + s.label + ";" + s.controller;
    // Appended only when present, so settings-free hashes stay valid.
    for (const auto& [key, value] : s.settings)
      canon += ";" + key + "=" + format_roundtrip(value);
  }
  return canon;
}

}  // namespace

std::string sweep_config_hash(const std::vector<Scenario>& scenarios,
                              const SweepOptions& options) {
  return to_hex(fnv1a64(config_canonical_text(scenarios, options)), 16);
}

SweepResult run_sweep(const std::vector<Scenario>& scenarios,
                      const SweepOptions& options) {
  PALS_CHECK_MSG(!scenarios.empty(), "sweep has no scenarios");
  options.base.validate();
  PALS_CHECK_MSG(options.cell_timeout_seconds >= 0.0,
                 "cell_timeout_seconds must be >= 0 (0 disables the watchdog)");
  PALS_CHECK_MSG(options.shard_count >= 1, "shard_count must be >= 1");
  PALS_CHECK_MSG(options.shard_index < options.shard_count,
                 "shard_index " << options.shard_index
                     << " out of range (shard_count " << options.shard_count
                     << ")");
  PALS_CHECK_MSG(options.heartbeat_interval_seconds >= 0.0,
                 "heartbeat_interval_seconds must be >= 0 (0 disables)");
  const auto sweep_start = Clock::now();
  obs::Registry& reg = obs::default_registry();
  obs::Registry* span_reg = options.base.observe ? &reg : nullptr;
  reg.counter("sweep.runs").add(1);
  reg.counter("sweep.scenarios").add(scenarios.size());

  // The fault injector (if any) rides through PipelineConfig::replay so
  // baseline and scaled replays both see the perturbed machine.
  const fault::Injector* faults =
      options.faults != nullptr ? options.faults : options.base.replay.faults;

  // Resolve everything serially up front so bad names fail with scenario
  // context before any thread spawns, and workers only do numeric work.
  // Each cell's configuration is shared verbatim between its replay and
  // the bounds analyzer, so both describe the same run.
  std::vector<WorkloadRef> workloads;
  std::map<std::string, std::size_t> workload_index;
  std::vector<std::size_t> scenario_workload(scenarios.size());
  std::vector<PipelineConfig> cell_configs;
  cell_configs.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    WorkloadRef ref = resolve_workload(s.workload, options.iterations);
    const auto [it, inserted] =
        workload_index.emplace(ref.key, workloads.size());
    if (inserted) workloads.push_back(std::move(ref));
    scenario_workload[i] = it->second;
    PipelineConfig& config =
        cell_configs.emplace_back(s.cell_config(options.base));
    PALS_CHECK_MSG(config.replay.platform == options.base.replay.platform,
                   "sweep scenario " << i << " (" << s.workload << " "
                       << s.variant_label()
                       << ") changes the platform; a sweep shares one "
                          "baseline per workload, so platform settings "
                          "belong in the sweep's base configuration");
    config.replay.faults = faults;
    if (options.cell_timeout_seconds > 0.0)
      config.replay.max_wall_seconds = options.cell_timeout_seconds;
  }

  // Sharded execution (docs/sharding.md): ownership is a pure function of
  // the canonical index (or of the workload key when prune_bounds keeps
  // groups shard-local), so every shard — and the supervisor's merge —
  // derives the same partition with no coordination. Foreign cells are
  // never run, journaled or counted as skipped.
  const shard::ShardSpec shard_spec{options.shard_index, options.shard_count};
  std::vector<char> owned(scenarios.size(), 1);
  std::size_t owned_cells = scenarios.size();
  if (shard_spec.active()) {
    owned_cells = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const std::size_t home =
          options.prune_bounds
              ? shard::shard_of_group(workloads[scenario_workload[i]].key,
                                      shard_spec.count)
              : shard::shard_of_cell(i, shard_spec.count);
      owned[i] = home == shard_spec.index ? 1 : 0;
      owned_cells += static_cast<std::size_t>(owned[i]);
    }
    reg.counter("shard.cells_owned").add(owned_cells);
    reg.counter("shard.cells_foreign").add(scenarios.size() - owned_cells);
  }

  TraceCache private_cache;
  TraceCache& cache =
      options.trace_cache ? *options.trace_cache : private_cache;
  ThreadPool pool(options.jobs);

  // Static bounds integration (docs/bounds.md). The analyzer describes
  // the fault-free single-schedule replay, so pruning refuses fault plans
  // and per-phase configs outright while the always-on oracle merely
  // disarms (a perturbed or per-phase sweep is still a valid sweep).
  PALS_CHECK_MSG(!options.prune_bounds || faults == nullptr,
                 "prune_bounds requires a fault-free sweep (the static "
                 "bounds describe the unperturbed replay)");
  PALS_CHECK_MSG(!options.prune_bounds || !options.base.per_phase,
                 "prune_bounds does not support per-phase configurations "
                 "(no single schedule to bound)");
  const bool prune_enabled = options.prune_bounds;
  const bool oracle_armed =
      options.bounds_oracle && faults == nullptr && !options.base.per_phase;

  ReplayConfig baseline_config = options.base.replay;
  baseline_config.faults = faults;
  if (options.cell_timeout_seconds > 0.0)
    baseline_config.max_wall_seconds = options.cell_timeout_seconds;

  // Crash-safe execution setup (docs/resume.md). The canonical result
  // slots are allocated before phase 1 so a resume journal can pre-fill
  // them: `done` cells skip phase 2 entirely, and workloads whose every
  // cell is done skip their (expensive) phase-1 baseline too.
  std::vector<ExperimentRow> row_slots(scenarios.size());
  std::vector<double> second_slots(scenarios.size(), 0.0);
  std::vector<char> row_ok(scenarios.size(), 0);
  std::vector<std::optional<ScenarioError>> error_slots(scenarios.size());
  std::vector<std::optional<PrunedCell>> pruned_slots(scenarios.size());
  std::vector<char> done(scenarios.size(), 0);
  std::string config_hash;
  if (!options.journal_path.empty() || options.resume != nullptr)
    config_hash = sweep_config_hash(scenarios, options);
  std::size_t resumed_cells = 0;
  if (options.resume != nullptr) {
    PALS_SPAN("sweep.journal_replay", span_reg);
    const JournalReadReport& prior = *options.resume;
    PALS_CHECK_MSG(prior.header.scenarios == scenarios.size(),
                   "resume journal describes " << prior.header.scenarios
                       << " scenarios but this sweep has " << scenarios.size());
    PALS_CHECK_MSG(
        prior.header.config_hash == config_hash,
        "resume journal config hash " << prior.header.config_hash
            << " does not match this sweep's " << config_hash
            << " (the journal belongs to a different sweep configuration)");
    for (const JournalRecord& record : prior.records) {
      const std::size_t i = record.index;
      if (record.kind == JournalRecord::Kind::kRow) {
        row_slots[i] = record.row;
        row_ok[i] = 1;
      } else if (record.kind == JournalRecord::Kind::kPruned) {
        PALS_CHECK_MSG(prune_enabled,
                       "resume journal records pruned cell "
                           << i << " but this sweep does not set "
                              "prune_bounds");
        pruned_slots[i] = PrunedCell{i,
                                     record.workload,
                                     record.variant,
                                     record.lb_normalized_time,
                                     record.lb_normalized_energy,
                                     record.dominated_by,
                                     scenarios[record.dominated_by]
                                         .variant_label()};
      } else {
        error_slots[i] = ScenarioError{
            i,
            record.workload,
            record.variant,
            fault::error_class_from_string(record.error_class),
            record.attempts,
            record.retries,
            record.backoff_seconds,
            record.message};
      }
      done[i] = 1;
      ++resumed_cells;
    }
    reg.counter("resume.cells_skipped").add(resumed_cells);
  }
  std::optional<JournalWriter> journal;
  std::mutex journal_mutex;
  if (!options.journal_path.empty()) {
    if (options.resume != nullptr) {
      journal.emplace(JournalWriter::open_existing(options.journal_path));
    } else {
      JournalHeader header;
      header.config_hash = config_hash;
      header.scenarios = scenarios.size();
      journal.emplace(JournalWriter::create(options.journal_path, header));
    }
  }
  const std::atomic<bool>* cancel = options.cancel;
  std::atomic<std::size_t> skipped{0};

  // Liveness heartbeats (docs/sharding.md): a background thread appends
  // one "H" record per interval so pals_shepherd can tell a slow shard
  // from a hung one. Sequence numbers continue past any heartbeats the
  // resumed journal already holds; the beat deliberately bypasses
  // on_journal_record (--kill-after counts *cell* records, and a
  // host-timed beat must not shift that deterministic point).
  obs::Counter& completed = reg.counter("sweep.scenarios_completed");
  const std::uint64_t completed_baseline = completed.value();
  std::size_t heartbeat_seq =
      options.resume != nullptr ? options.resume->heartbeats.size() : 0;
  std::size_t heartbeats_written = 0;
  std::optional<HeartbeatMonitor> heartbeat;
  if (options.heartbeat_interval_seconds > 0.0 && journal.has_value()) {
    const std::string shard_label = shard_spec.to_string();
    heartbeat.emplace(options.heartbeat_interval_seconds, [&, shard_label] {
      JournalRecord record;
      record.kind = JournalRecord::Kind::kHeartbeat;
      record.shard = shard_label;
      record.unix_seconds =
          std::chrono::duration<double>(
              std::chrono::system_clock::now().time_since_epoch())
              .count();
      std::lock_guard<std::mutex> lock(journal_mutex);
      record.index = heartbeat_seq++;
      record.cells_done =
          static_cast<std::size_t>(completed.value() - completed_baseline);
      journal->append(record);
      ++heartbeats_written;
    });
  }

  // Phase 1: one trace, compiled replay program and baseline replay per
  // unique workload (plus the trace shape when the bounds analyzer runs).
  // The baseline depends only on the trace and the platform and the
  // program only on the trace, so every scenario of the workload shares
  // them. With the opt-in lint hook (options.base.lint) each workload
  // trace is statically verified here, once. Without keep_going a bad
  // workload aborts the sweep with the full diagnostic report before any
  // scenario runs; with keep_going the failure is recorded per workload
  // and only that workload's cells are quarantined — independent
  // workloads still produce results.
  std::vector<char> workload_needed(workloads.size(), 0);
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    if (done[i] == 0 && owned[i] != 0)
      workload_needed[scenario_workload[i]] = 1;
  std::size_t baselines_needed = 0;
  for (const char needed : workload_needed)
    baselines_needed += static_cast<std::size_t>(needed);
  reg.counter("sweep.baseline_replays").add(baselines_needed);
  std::vector<const Trace*> traces(workloads.size());
  std::vector<ReplayProgram> programs(workloads.size());
  std::vector<ReplayResult> baselines(workloads.size());
  std::vector<bounds::TraceShape> shapes(workloads.size());
  std::vector<fault::GuardOutcome> workload_outcomes(workloads.size());
  std::vector<char> workload_skipped(workloads.size(), 0);
  {
    PALS_SPAN("sweep.baselines", span_reg);
    pool.parallel_for(workloads.size(), [&](std::size_t w) {
      if (workload_needed[w] == 0) {
        // Every cell of this workload was resumed from the journal; its
        // trace and baseline are never consulted again.
        workload_outcomes[w].ok = true;
        return;
      }
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        workload_skipped[w] = 1;
        workload_outcomes[w].ok = true;
        return;
      }
      PALS_SPAN_DETAIL("sweep.baseline", span_reg, workloads[w].display);
      const auto body = [&](int) {
        traces[w] = &cache.get(workloads[w].key, workloads[w].build);
        if (options.base.lint) {
          lint::LintOptions lint_options;
          lint_options.eager_threshold =
              options.base.replay.platform.eager_threshold;
          lint::enforce_lint(*traces[w], lint_options, workloads[w].display);
        }
        programs[w] = ReplayProgram(*traces[w]);
        baselines[w] = replay(*traces[w], programs[w], baseline_config);
        if (prune_enabled || oracle_armed)
          shapes[w] = bounds::shape_of(*traces[w]);
      };
      if (!options.keep_going) {
        body(1);  // fail-fast: lint/replay errors propagate untouched
        workload_outcomes[w].ok = true;
        return;
      }
      workload_outcomes[w] = fault::run_guarded(options.retry, body);
    });
  }

  // Phase 2: the scenario fan-out. Each worker runs the pipeline on
  // private state and writes into its pre-allocated slot, so the merged
  // row/error order is the canonical grid order regardless of thread
  // count. Each cell runs under run_guarded: transient failures (e.g.
  // injected scenario_flaky faults) retry with deterministic simulated
  // backoff; persistent failures quarantine the cell when keep_going is
  // set and abort the sweep with cell context otherwise.
  std::vector<fault::GuardOutcome> cell_outcomes(scenarios.size());
  {
    ProgressMonitor progress(options.progress_stream,
                             options.progress_interval_seconds,
                             owned_cells, completed, completed.value());
    PALS_SPAN("sweep.scenarios", span_reg);
    // Durably journal one terminal record. Appends are serialized: the
    // journal is append-only and fsync'd per record, so at most one
    // in-flight record can be torn by a crash — exactly what
    // read_journal's tail-drop repairs.
    const auto journal_append = [&](const JournalRecord& record) {
      if (!journal.has_value()) return;
      std::lock_guard<std::mutex> lock(journal_mutex);
      journal->append(record);
      reg.counter("journal.records_appended").add(1);
      if (options.on_journal_record)
        options.on_journal_record(journal->records_appended());
    };
    const auto run_cell = [&](std::size_t i) {
      if (owned[i] == 0) return;  // another shard's cell (docs/sharding.md)
      if (done[i] != 0) {
        // Resumed from the journal: the slot is already terminal.
        completed.add(1);
        return;
      }
      const Scenario& s = scenarios[i];
      const std::size_t w = scenario_workload[i];
      if (workload_skipped[w] != 0 ||
          (cancel != nullptr && cancel->load(std::memory_order_relaxed))) {
        // Cancelled before this cell started; a later --resume run
        // re-executes it (it was never journaled as terminal).
        skipped.fetch_add(1, std::memory_order_relaxed);
        completed.add(1);
        return;
      }
      const auto scenario_start = Clock::now();
      PALS_SPAN_DETAIL("sweep.scenario", span_reg,
                       workloads[w].display + " " + s.variant_label());
      const auto record_error = [&](const fault::GuardOutcome& outcome) {
        error_slots[i] = ScenarioError{
            i, workloads[w].display, s.variant_label(), outcome.error_class,
            outcome.attempts, outcome.retries, outcome.backoff_seconds,
            outcome.message};
      };
      const auto journal_cell = [&] {
        if (!journal.has_value()) return;
        JournalRecord record;
        record.index = i;
        if (row_ok[i] != 0) {
          record.kind = JournalRecord::Kind::kRow;
          record.row = row_slots[i];
        } else {
          const ScenarioError& e = *error_slots[i];
          record.kind = JournalRecord::Kind::kError;
          record.workload = e.workload;
          record.variant = e.variant;
          record.error_class = fault::to_string(e.error_class);
          record.attempts = e.attempts;
          record.retries = e.retries;
          record.backoff_seconds = e.backoff_seconds;
          record.message = e.message;
        }
        journal_append(record);
      };
      if (!workload_outcomes[w].ok) {
        // keep_going only (fail-fast threw in phase 1): the workload's
        // lint/baseline failure quarantines each of its cells.
        record_error(workload_outcomes[w]);
        journal_cell();
        completed.add(1);
        return;
      }
      // Static intervals, computed once and reused by the pruner and the
      // oracle, from the cell's one plan, which the pipeline then replays.
      // A throw here is an analyzer bug and aborts the sweep even under
      // keep_going — silently degrading the soundness contract would hide
      // exactly the failures the oracle exists to catch. Without the
      // analyzer the pipeline plans the cell itself.
      std::optional<CellPlan> plan;
      std::optional<bounds::ScenarioBounds> cell_bounds;
      if (prune_enabled || oracle_armed) {
        cell_configs[i].validate();
        plan = plan_cell(*traces[w], cell_configs[i], baselines[w]);
        const bounds::BaselineFacts facts{baselines[w].makespan,
                                          plan->baseline_energy};
        cell_bounds = bounds::analyze(shapes[w], cell_configs[i],
                                      plan->schedule,
                                      baselines[w].compute_time, &facts);
      }
      if (prune_enabled && cell_bounds->normalized) {
        // Candidate dominators are completed earlier cells of the same
        // workload: the pruning fan-out runs a workload's cells serially
        // in canonical order, so row_ok[j] is settled for every j < i of
        // this group (including cells pre-filled by --resume), and the
        // decision is identical at any jobs count.
        ExperimentRow optimistic;
        optimistic.instance = workloads[w].display;
        optimistic.normalized_time = cell_bounds->normalized_time.lo;
        optimistic.normalized_energy = cell_bounds->normalized_energy.lo;
        for (std::size_t j = 0; j < i; ++j) {
          if (scenario_workload[j] != w || row_ok[j] == 0) continue;
          if (!dominates(row_slots[j], optimistic)) continue;
          // Even the cell's best case is beaten outright: the replay can
          // not land on the Pareto front, so skip it with provenance.
          PrunedCell cell{i,
                          workloads[w].display,
                          s.variant_label(),
                          optimistic.normalized_time,
                          optimistic.normalized_energy,
                          j,
                          scenarios[j].variant_label()};
          pruned_slots[i] = std::move(cell);
          reg.counter("sweep.cells_pruned").add(1);
          JournalRecord record;
          record.kind = JournalRecord::Kind::kPruned;
          record.index = i;
          record.workload = pruned_slots[i]->workload;
          record.variant = pruned_slots[i]->variant;
          record.lb_normalized_time = pruned_slots[i]->lb_normalized_time;
          record.lb_normalized_energy = pruned_slots[i]->lb_normalized_energy;
          record.dominated_by = j;
          journal_append(record);
          completed.add(1);
          return;
        }
      }
      const auto body = [&](int attempt) {
        if (faults != nullptr) {
          if (faults->scenario_crashed(i))
            throw Error("injected scenario crash (scenario_crash, cell " +
                        std::to_string(i) + ")");
          if (attempt <= faults->scenario_transient_failures(i))
            throw fault::TransientError(
                "injected transient fault (scenario_flaky, cell " +
                std::to_string(i) + ", attempt " + std::to_string(attempt) +
                ")");
        }
        const PipelineResult pipeline =
            run_pipeline(*traces[w], programs[w], cell_configs[i],
                         baselines[w], plan ? &*plan : nullptr);
        if (oracle_armed) {
          const std::vector<lint::Diagnostic> violations =
              bounds::check_soundness(*cell_bounds, pipeline.scaled_time,
                                      pipeline.scaled_energy);
          if (!violations.empty()) {
            std::string text = "bounds soundness oracle: ";
            for (std::size_t k = 0; k < violations.size(); ++k) {
              if (k > 0) text += "; ";
              text += violations[k].to_text();
            }
            throw Error(text);
          }
        }
        row_slots[i] = flatten_result(pipeline, workloads[w].display,
                                      s.variant_label());
      };
      if (!options.keep_going && faults == nullptr &&
          options.cell_timeout_seconds <= 0.0) {
        body(1);  // fail-fast: scenario errors propagate untouched
        cell_outcomes[i].ok = true;
      } else {
        // Guarded also when a watchdog is armed, so an expired cell is
        // classified (kTimeout) like any other fault.
        cell_outcomes[i] = fault::run_guarded(options.retry, body);
      }
      const fault::GuardOutcome& outcome = cell_outcomes[i];
      if (outcome.ok) {
        row_ok[i] = 1;
        second_slots[i] = seconds_since(scenario_start);
        journal_cell();
      } else if (options.keep_going) {
        record_error(outcome);
        journal_cell();
      } else {
        completed.add(1);
        throw Error("sweep scenario " + std::to_string(i) + " (" +
                    workloads[w].display + " " + s.variant_label() +
                    ") failed: " + outcome.describe());
      }
      completed.add(1);
    };
    if (prune_enabled) {
      // Pruning needs earlier cells of the workload to be terminal before
      // later ones are judged, so parallelism moves up a level: workload
      // groups fan out across the pool, cells inside a group run serially
      // in canonical order. Scenario order within a group — and therefore
      // every prune decision — is independent of the thread count.
      std::vector<std::vector<std::size_t>> groups(workloads.size());
      for (std::size_t i = 0; i < scenarios.size(); ++i)
        groups[scenario_workload[i]].push_back(i);
      pool.parallel_for(groups.size(), [&](std::size_t g) {
        for (const std::size_t i : groups[g]) run_cell(i);
      });
    } else {
      pool.parallel_for(scenarios.size(), run_cell);
    }
  }
  obs::record_thread_pool(pool.stats(), reg);
  heartbeat.reset();  // join the beater; heartbeats_written is now settled

  // Merge the slots in canonical order: successes into rows, failures
  // into errors. Without faults and with healthy workloads every slot is
  // a success and the output matches the pre-fault engine exactly.
  SweepResult result;
  result.rows.reserve(scenarios.size());
  result.scenario_seconds.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (row_ok[i] != 0) {
      result.rows.push_back(std::move(row_slots[i]));
      result.scenario_seconds.push_back(second_slots[i]);
    } else if (error_slots[i].has_value()) {
      result.errors.push_back(std::move(*error_slots[i]));
    } else if (pruned_slots[i].has_value()) {
      result.pruned.push_back(std::move(*pruned_slots[i]));
    }
  }

  SweepStats& stats = result.stats;
  stats.scenarios = scenarios.size();
  stats.workloads = workloads.size();
  stats.jobs = pool.size();
  stats.wall_seconds = seconds_since(sweep_start);
  stats.scenarios_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.scenarios) / stats.wall_seconds
          : 0.0;
  stats.baseline_cache_misses = baselines_needed;
  stats.baseline_cache_hits = scenarios.size() - workloads.size();
  stats.baseline_cache_hit_rate =
      static_cast<double>(stats.baseline_cache_hits) /
      static_cast<double>(stats.scenarios);
  for (const double s : result.scenario_seconds) {
    stats.scenario_seconds_total += s;
    stats.scenario_seconds_max = std::max(stats.scenario_seconds_max, s);
  }
  stats.quarantined = result.errors.size();
  for (const fault::GuardOutcome& outcome : workload_outcomes) {
    stats.transient_retries += static_cast<std::size_t>(outcome.retries);
    stats.backoff_seconds += outcome.backoff_seconds;
  }
  for (const fault::GuardOutcome& outcome : cell_outcomes) {
    stats.transient_retries += static_cast<std::size_t>(outcome.retries);
    stats.backoff_seconds += outcome.backoff_seconds;
  }
  stats.resumed_cells = resumed_cells;
  stats.skipped_cells = skipped.load();
  stats.pruned_cells = result.pruned.size();
  stats.shard_cells_owned = owned_cells;
  stats.shard_cells_foreign = scenarios.size() - owned_cells;
  stats.heartbeats_written = heartbeats_written;
  stats.journal_records = journal.has_value() ? journal->records_appended() : 0;
  result.interrupted = stats.skipped_cells > 0;
  if (faults != nullptr || options.keep_going) {
    // Only touched on the fault-tolerant path so fault-free sweeps keep
    // their exact metric snapshots. The added values are deterministic.
    reg.counter("fault.scenario_retries").add(stats.transient_retries);
    reg.counter("fault.cells_quarantined").add(stats.quarantined);
  }
  return result;
}

SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& options) {
  SweepOptions resolved = options;
  resolved.iterations = grid.iterations;
  return run_sweep(grid.expand(), resolved);
}

std::string errors_to_csv(const std::vector<ScenarioError>& errors) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row({"index", "workload", "variant", "class", "attempts", "retries",
           "backoff_seconds", "message"});
  for (const ScenarioError& e : errors) {
    std::string message = e.message;
    std::replace(message.begin(), message.end(), '\n', ';');
    csv.field(e.index)
        .field(e.workload)
        .field(e.variant)
        .field(fault::to_string(e.error_class))
        .field(static_cast<long long>(e.attempts))
        .field(static_cast<long long>(e.retries))
        .field(e.backoff_seconds)
        .field(message);
    csv.end_row();
  }
  return out.str();
}

void write_errors_csv(const std::vector<ScenarioError>& errors,
                      const std::string& path) {
  atomic_write_file(path, errors_to_csv(errors));
}

std::string pruned_to_csv(const std::vector<PrunedCell>& pruned) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row({"index", "workload", "variant", "lb_normalized_time",
           "lb_normalized_energy", "dominated_by", "dominated_by_variant"});
  for (const PrunedCell& p : pruned) {
    csv.field(p.index)
        .field(p.workload)
        .field(p.variant)
        .field(p.lb_normalized_time)
        .field(p.lb_normalized_energy)
        .field(static_cast<long long>(p.dominated_by))
        .field(p.dominated_by_variant);
    csv.end_row();
  }
  return out.str();
}

void write_pruned_csv(const std::vector<PrunedCell>& pruned,
                      const std::string& path) {
  atomic_write_file(path, pruned_to_csv(pruned));
}

}  // namespace pals
