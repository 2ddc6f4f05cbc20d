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
#include <variant>

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

/// A background thread that calls `tick` every `interval_seconds` until
/// it is destroyed; the destructor wakes and joins it, so no tick can
/// outlive its owner, then ticks once more when `final_tick` is set.
/// Drives the progress lines and the journal heartbeats.
class Ticker {
 public:
  Ticker(double interval_seconds, std::function<void()> tick,
         bool final_tick = false)
      : tick_(std::move(tick)), final_tick_(final_tick) {
    thread_ = std::thread([this, interval_seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_.wait_for(lock,
                             std::chrono::duration<double>(interval_seconds),
                             [this] { return done_; })) {
        lock.unlock();
        tick_();
        lock.lock();
      }
    });
  }

  ~Ticker() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    stop_.notify_all();
    thread_.join();
    if (final_tick_) tick_();
  }

 private:
  std::function<void()> tick_;
  bool final_tick_;
  std::mutex mutex_;
  std::condition_variable stop_;
  bool done_ = false;
  std::thread thread_;
};

/// SweepOptions::progress_stream: one whole line from the completion
/// counter per call, so a Ticker prints one per interval and a final
/// "N/N" line when the fan-out ends.
std::function<void()> progress_printer(std::ostream& out, std::size_t total,
                                       const obs::Counter& completed) {
  return [&out, total, &completed, baseline = completed.value(),
          start = Clock::now()] {
    const std::uint64_t done = completed.value() - baseline;
    const double elapsed = seconds_since(start);
    std::string line = "sweep: " + std::to_string(done) + "/" +
                       std::to_string(total) + " scenarios, elapsed " +
                       format_fixed(elapsed, 1) + "s";
    if (done > 0 && done < total) {
      const double eta =
          elapsed / static_cast<double>(done) *
          static_cast<double>(total - done);
      line += ", ETA " + format_fixed(eta, 1) + "s";
    }
    line += '\n';
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.flush();
  };
}

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

namespace {

/// One grid cell: its workload and configuration, whether this shard runs
/// it, and its terminal outcome once it has one. Workers write only their
/// own slot, so the merge reads every outcome in canonical grid order.
struct CellSlot {
  std::size_t workload = 0;  ///< index into SweepRun::workloads
  /// Shared verbatim by the cell's replay and the bounds analyzer, so
  /// both describe the same run.
  PipelineConfig config;
  bool owned = true;  ///< this shard runs the cell (docs/sharding.md)
  /// Resumed from a journal, or run to a row, an error or a pruning.
  CellOutcome outcome;
  double seconds = 0.0;       ///< wall time of a row's run
  fault::GuardOutcome guard;  ///< retries and backoff of the cell's run

  bool terminal() const {
    return !std::holds_alternative<std::monostate>(outcome);
  }
};

/// One unique workload: the trace, compiled replay program and baseline
/// replay every cell of the workload shares, plus the trace shape when
/// the bounds analyzer runs.
struct WorkloadSlot {
  WorkloadRef ref;
  bool needed = false;   ///< an owned cell still has to run
  bool skipped = false;  ///< cancelled before its baseline ran
  const Trace* trace = nullptr;
  ReplayProgram program;
  ReplayResult baseline;
  bounds::TraceShape shape;
  fault::GuardOutcome guard;  ///< the lint/baseline run (keep_going)
};

/// What the phases of one run_sweep share.
struct SweepRun {
  SweepRun(const std::vector<Scenario>& s, const SweepOptions& o)
      : scenarios(s), options(o) {}

  bool cancelled() const {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  }

  std::size_t owned_cells() const {
    return static_cast<std::size_t>(std::ranges::count_if(
        cells, [](const CellSlot& cell) { return cell.owned; }));
  }

  std::size_t baselines_needed() const {
    return static_cast<std::size_t>(std::ranges::count_if(
        workloads, [](const WorkloadSlot& w) { return w.needed; }));
  }

  const std::vector<Scenario>& scenarios;
  const SweepOptions& options;
  /// The fault injector (if any) rides through PipelineConfig::replay so
  /// baseline and scaled replays both see the perturbed machine.
  const fault::Injector* faults =
      options.faults != nullptr ? options.faults : options.base.replay.faults;
  obs::Registry& reg = obs::default_registry();
  obs::Registry* span_reg = options.base.observe ? &reg : nullptr;
  /// sweep.scenarios_completed, registered when the journal opens.
  obs::Counter* completed = nullptr;
  /// Disarmed where the static bounds do not apply (see run_sweep).
  bool oracle_armed =
      options.bounds_oracle && faults == nullptr && !options.base.per_phase;
  std::vector<WorkloadSlot> workloads;
  std::vector<CellSlot> cells;
  std::atomic<std::size_t> skipped{0};
  /// The journal (docs/resume.md), when the sweep keeps one. Appends and
  /// heartbeats are serialized by journal_mutex.
  std::optional<JournalWriter> journal;
  std::mutex journal_mutex;
  std::size_t heartbeat_seq = 0;
  std::size_t heartbeats_written = 0;
  /// Declared after the journal, so it is joined before the journal it
  /// appends to is closed.
  std::optional<Ticker> heartbeat;
};

/// Resolve every workload and cell configuration serially up front, so
/// bad names fail with scenario context before any thread spawns and
/// workers only do numeric work.
void resolve(SweepRun& run) {
  const SweepOptions& options = run.options;
  std::map<std::string, std::size_t> workload_index;
  run.cells.resize(run.scenarios.size());
  for (std::size_t i = 0; i < run.scenarios.size(); ++i) {
    const Scenario& s = run.scenarios[i];
    WorkloadRef ref = resolve_workload(s.workload, options.iterations);
    const auto [it, inserted] =
        workload_index.emplace(ref.key, run.workloads.size());
    if (inserted) run.workloads.emplace_back().ref = std::move(ref);
    CellSlot& cell = run.cells[i];
    cell.workload = it->second;
    cell.config = s.cell_config(options.base);
    PALS_CHECK_MSG(cell.config.replay.platform == options.base.replay.platform,
                   "sweep scenario " << i << " (" << s.workload << " "
                       << s.variant_label()
                       << ") changes the platform; a sweep shares one "
                          "baseline per workload, so platform settings "
                          "belong in the sweep's base configuration");
    cell.config.replay.faults = run.faults;
    if (options.cell_timeout_seconds > 0.0)
      cell.config.replay.max_wall_seconds = options.cell_timeout_seconds;
  }
}

/// Sharded execution (docs/sharding.md): ownership is a pure function of
/// the canonical index (or of the workload key when prune_bounds keeps
/// groups shard-local), so every shard — and the supervisor's merge —
/// derives the same partition with no coordination. Foreign cells are
/// never run, journaled or counted as skipped.
void assign_shards(SweepRun& run, const shard::ShardSpec& spec) {
  if (!spec.active()) return;
  for (std::size_t i = 0; i < run.cells.size(); ++i) {
    CellSlot& cell = run.cells[i];
    const std::size_t home =
        run.options.prune_bounds
            ? shard::shard_of_group(run.workloads[cell.workload].ref.key,
                                    spec.count)
            : shard::shard_of_cell(i, spec.count);
    cell.owned = home == spec.index;
  }
  const std::size_t owned = run.owned_cells();
  run.reg.counter("shard.cells_owned").add(owned);
  run.reg.counter("shard.cells_foreign").add(run.cells.size() - owned);
}

/// Crash-safe execution (docs/resume.md): pre-fill the slots a resume
/// journal records, so those cells skip the fan-out and workloads whose
/// every cell is done skip their (expensive) baseline too.
void prefill_from_journal(SweepRun& run, const std::string& config_hash) {
  const JournalReadReport* prior = run.options.resume;
  if (prior == nullptr) return;
  PALS_SPAN("sweep.journal_replay", run.span_reg);
  PALS_CHECK_MSG(prior->header.scenarios == run.scenarios.size(),
                 "resume journal describes " << prior->header.scenarios
                     << " scenarios but this sweep has "
                     << run.scenarios.size());
  PALS_CHECK_MSG(
      prior->header.config_hash == config_hash,
      "resume journal config hash " << prior->header.config_hash
          << " does not match this sweep's " << config_hash
          << " (the journal belongs to a different sweep configuration)");
  for (const JournalRecord& record : prior->records) {
    PALS_CHECK_MSG(run.options.prune_bounds ||
                       record.kind != JournalRecord::Kind::kPruned,
                   "resume journal records pruned cell "
                       << record.index << " but this sweep does not set "
                                          "prune_bounds");
    run.cells[record.index].outcome = outcome_of(record, run.scenarios);
  }
  run.reg.counter("resume.cells_skipped").add(prior->records.size());
}

/// Open the journal, when the sweep keeps one, and start the liveness
/// heartbeats (docs/sharding.md): a background thread appends one "H"
/// record per interval so pals_shepherd can tell a slow shard from a
/// hung one. Sequence numbers continue past any heartbeats the resumed
/// journal already holds; the beat deliberately bypasses
/// on_journal_record (--kill-after counts *cell* records, and a
/// host-timed beat must not shift that deterministic point).
void open_journal(SweepRun& run, const std::string& config_hash,
                  const shard::ShardSpec& spec) {
  const SweepOptions& options = run.options;
  if (options.resume != nullptr)
    run.heartbeat_seq = options.resume->heartbeats.size();
  if (!options.journal_path.empty()) {
    if (options.resume != nullptr) {
      run.journal.emplace(JournalWriter::open_existing(options.journal_path));
    } else {
      JournalHeader header;
      header.config_hash = config_hash;
      header.scenarios = run.scenarios.size();
      run.journal.emplace(JournalWriter::create(options.journal_path, header));
    }
  }
  run.completed = &run.reg.counter("sweep.scenarios_completed");
  if (options.heartbeat_interval_seconds <= 0.0 || !run.journal) return;
  const std::uint64_t completed_baseline = run.completed->value();
  run.heartbeat.emplace(
      options.heartbeat_interval_seconds,
      [&run, completed_baseline, label = spec.to_string()] {
        JournalRecord record;
        record.kind = JournalRecord::Kind::kHeartbeat;
        record.shard = label;
        record.unix_seconds =
            std::chrono::duration<double>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
        std::lock_guard<std::mutex> lock(run.journal_mutex);
        record.index = run.heartbeat_seq++;
        record.cells_done = static_cast<std::size_t>(run.completed->value() -
                                                     completed_baseline);
        run.journal->append(record);
        ++run.heartbeats_written;
      });
}

/// Durably journal terminal cell `index`. Appends are serialized: the
/// journal is append-only and fsync'd per record, so at most one
/// in-flight record can be torn by a crash — exactly what read_journal's
/// tail-drop repairs.
void journal_cell(SweepRun& run, std::size_t index) {
  if (!run.journal.has_value()) return;
  const JournalRecord record = record_of(index, run.cells[index].outcome);
  std::lock_guard<std::mutex> lock(run.journal_mutex);
  run.journal->append(record);
  run.reg.counter("journal.records_appended").add(1);
  if (run.options.on_journal_record)
    run.options.on_journal_record(run.journal->records_appended());
}

/// Phase 1: one trace, compiled replay program and baseline replay per
/// workload some owned cell still needs (plus the trace shape when the
/// bounds analyzer runs). With the opt-in lint hook (options.base.lint)
/// each workload trace is statically verified here, once. Without
/// keep_going a bad workload aborts the sweep with the full diagnostic
/// report before any scenario runs; with keep_going the failure is
/// recorded per workload and only that workload's cells are quarantined.
void run_baselines(SweepRun& run, ThreadPool& pool, TraceCache& cache) {
  const SweepOptions& options = run.options;
  for (const CellSlot& cell : run.cells)
    if (!cell.terminal() && cell.owned)
      run.workloads[cell.workload].needed = true;
  run.reg.counter("sweep.baseline_replays").add(run.baselines_needed());

  ReplayConfig baseline_config = options.base.replay;
  baseline_config.faults = run.faults;
  if (options.cell_timeout_seconds > 0.0)
    baseline_config.max_wall_seconds = options.cell_timeout_seconds;
  PALS_SPAN("sweep.baselines", run.span_reg);
  pool.parallel_for(run.workloads.size(), [&](std::size_t index) {
    WorkloadSlot& w = run.workloads[index];
    // Every cell of a workload that is not needed was resumed from the
    // journal or belongs to another shard; its trace, baseline and guard
    // are never consulted. Nor is the guard of a skipped workload.
    if (!w.needed) return;
    if (run.cancelled()) {
      w.skipped = true;
      return;
    }
    PALS_SPAN_DETAIL("sweep.baseline", run.span_reg, w.ref.display);
    const auto body = [&](int) {
      w.trace = &cache.get(w.ref.key, w.ref.build);
      if (options.base.lint) {
        lint::LintOptions lint_options;
        lint_options.eager_threshold =
            options.base.replay.platform.eager_threshold;
        lint::enforce_lint(*w.trace, lint_options, w.ref.display);
      }
      w.program = ReplayProgram(*w.trace);
      w.baseline = replay(*w.trace, w.program, baseline_config);
      if (options.prune_bounds || run.oracle_armed)
        w.shape = bounds::shape_of(*w.trace);
    };
    if (!options.keep_going) {
      body(1);  // fail-fast: lint/replay errors propagate untouched
      w.guard.ok = true;
      return;
    }
    w.guard = fault::run_guarded(options.retry, body);
  });
}

/// Skip cell `index` when a completed earlier cell of its workload
/// Pareto-dominates its static lower-bound point: even the cell's best
/// case is beaten outright, so its replay cannot land on the front. The
/// pruning fan-out runs a workload's cells serially in canonical order,
/// so every earlier slot of this group is settled (including cells
/// pre-filled by --resume), and the decision is identical at any jobs
/// count.
bool prune_cell(SweepRun& run, std::size_t index,
                const bounds::ScenarioBounds& cell_bounds) {
  CellSlot& cell = run.cells[index];
  const std::string& display = run.workloads[cell.workload].ref.display;
  ExperimentRow optimistic;
  optimistic.instance = display;
  optimistic.normalized_time = cell_bounds.normalized_time.lo;
  optimistic.normalized_energy = cell_bounds.normalized_energy.lo;
  for (std::size_t j = 0; j < index; ++j) {
    if (run.cells[j].workload != cell.workload) continue;
    const auto* row = std::get_if<ExperimentRow>(&run.cells[j].outcome);
    if (row == nullptr || !dominates(*row, optimistic)) continue;
    cell.outcome = PrunedCell{index,
                              display,
                              run.scenarios[index].variant_label(),
                              optimistic.normalized_time,
                              optimistic.normalized_energy,
                              j,
                              run.scenarios[j].variant_label()};
    run.reg.counter("sweep.cells_pruned").add(1);
    journal_cell(run, index);
    return true;
  }
  return false;
}

/// Drive one cell of the fan-out to a terminal slot and journal it. The
/// cell's pipeline runs under its guard: transient failures retry with
/// deterministic simulated backoff, persistent ones quarantine the cell
/// when keep_going is set and abort the sweep with cell context
/// otherwise.
void run_cell(SweepRun& run, std::size_t index) {
  const SweepOptions& options = run.options;
  CellSlot& cell = run.cells[index];
  if (!cell.owned) return;  // another shard's cell (docs/sharding.md)
  if (cell.terminal()) {
    // Resumed from the journal: the slot is already terminal.
    run.completed->add(1);
    return;
  }
  const Scenario& s = run.scenarios[index];
  const WorkloadSlot& w = run.workloads[cell.workload];
  if (w.skipped || run.cancelled()) {
    // Cancelled before this cell started; a later --resume run
    // re-executes it (it was never journaled as terminal).
    run.skipped.fetch_add(1, std::memory_order_relaxed);
    run.completed->add(1);
    return;
  }
  const auto scenario_start = Clock::now();
  PALS_SPAN_DETAIL("sweep.scenario", run.span_reg,
                   w.ref.display + " " + s.variant_label());
  const auto quarantine = [&](const fault::GuardOutcome& outcome) {
    cell.outcome = ScenarioError{
        index, w.ref.display, s.variant_label(), outcome.error_class,
        outcome.attempts, outcome.retries, outcome.backoff_seconds,
        outcome.message};
    journal_cell(run, index);
  };
  if (!w.guard.ok) {
    // keep_going only (fail-fast threw in phase 1): the workload's
    // lint/baseline failure quarantines each of its cells.
    quarantine(w.guard);
    run.completed->add(1);
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
  if (options.prune_bounds || run.oracle_armed) {
    cell.config.validate();
    plan = plan_cell(*w.trace, cell.config, w.baseline);
    const bounds::BaselineFacts facts{w.baseline.makespan,
                                      plan->baseline_energy};
    cell_bounds = bounds::analyze(w.shape, cell.config, plan->schedule,
                                  w.baseline.compute_time, &facts);
  }
  if (options.prune_bounds && cell_bounds->normalized &&
      prune_cell(run, index, *cell_bounds)) {
    run.completed->add(1);
    return;
  }
  // Injected scenario faults, run_pipeline from the workload's shared
  // program and baseline, the soundness oracle, and the flattened row.
  const auto body = [&](int attempt) {
    if (run.faults != nullptr) {
      if (run.faults->scenario_crashed(index))
        throw Error("injected scenario crash (scenario_crash, cell " +
                    std::to_string(index) + ")");
      if (attempt <= run.faults->scenario_transient_failures(index))
        throw fault::TransientError(
            "injected transient fault (scenario_flaky, cell " +
            std::to_string(index) + ", attempt " + std::to_string(attempt) +
            ")");
    }
    const PipelineResult pipeline = run_pipeline(
        *w.trace, w.program, cell.config, w.baseline, plan ? &*plan : nullptr);
    if (run.oracle_armed) {
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
    cell.outcome = flatten_result(pipeline, w.ref.display, s.variant_label());
  };
  if (!options.keep_going && run.faults == nullptr &&
      options.cell_timeout_seconds <= 0.0) {
    body(1);  // fail-fast: scenario errors propagate untouched
    cell.guard.ok = true;
  } else {
    // Guarded also when a watchdog is armed, so an expired cell is
    // classified (kTimeout) like any other fault.
    cell.guard = fault::run_guarded(options.retry, body);
  }
  if (cell.guard.ok) {
    cell.seconds = seconds_since(scenario_start);
    journal_cell(run, index);
  } else if (options.keep_going) {
    quarantine(cell.guard);
  } else {
    run.completed->add(1);
    throw Error("sweep scenario " + std::to_string(index) + " (" +
                w.ref.display + " " + s.variant_label() +
                ") failed: " + cell.guard.describe());
  }
  run.completed->add(1);
}

/// Phase 2: the scenario fan-out. Each worker runs cells on private
/// state and writes into their pre-allocated slots, so the merged
/// row/error order is the canonical grid order regardless of thread
/// count.
void fan_out(SweepRun& run, ThreadPool& pool) {
  std::optional<Ticker> progress;
  if (run.options.progress_stream != nullptr)
    progress.emplace(run.options.progress_interval_seconds,
                     progress_printer(*run.options.progress_stream,
                                      run.owned_cells(), *run.completed),
                     /*final_tick=*/true);
  PALS_SPAN("sweep.scenarios", run.span_reg);
  const auto cell = [&run](std::size_t i) { run_cell(run, i); };
  if (!run.options.prune_bounds) {
    pool.parallel_for(run.cells.size(), cell);
    return;
  }
  // Pruning needs earlier cells of the workload to be terminal before
  // later ones are judged, so parallelism moves up a level: workload
  // groups fan out across the pool, cells inside a group run serially
  // in canonical order. Scenario order within a group — and therefore
  // every prune decision — is independent of the thread count.
  std::vector<std::vector<std::size_t>> groups(run.workloads.size());
  for (std::size_t i = 0; i < run.cells.size(); ++i)
    groups[run.cells[i].workload].push_back(i);
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    for (const std::size_t i : groups[g]) cell(i);
  });
}

/// Merge the slots in canonical order: successes into rows, failures
/// into errors, pruned cells into pruned, then the run's statistics.
/// Without faults and with healthy workloads every slot is a success and
/// the output matches the pre-fault engine exactly.
SweepResult merge(SweepRun& run, const ThreadPool& pool,
                  Clock::time_point sweep_start) {
  SweepResult result;
  result.rows.reserve(run.cells.size());
  result.scenario_seconds.reserve(run.cells.size());
  SweepStats& stats = result.stats;
  for (const WorkloadSlot& w : run.workloads) {
    stats.transient_retries += static_cast<std::size_t>(w.guard.retries);
    stats.backoff_seconds += w.guard.backoff_seconds;
  }
  for (CellSlot& cell : run.cells) {
    if (ExperimentRow* row = std::get_if<ExperimentRow>(&cell.outcome)) {
      result.rows.push_back(std::move(*row));
      result.scenario_seconds.push_back(cell.seconds);
      stats.scenario_seconds_total += cell.seconds;
      stats.scenario_seconds_max =
          std::max(stats.scenario_seconds_max, cell.seconds);
    } else if (auto* e = std::get_if<ScenarioError>(&cell.outcome)) {
      result.errors.push_back(std::move(*e));
    } else if (auto* p = std::get_if<PrunedCell>(&cell.outcome)) {
      result.pruned.push_back(std::move(*p));
    }
    stats.transient_retries += static_cast<std::size_t>(cell.guard.retries);
    stats.backoff_seconds += cell.guard.backoff_seconds;
  }

  stats.scenarios = run.cells.size();
  stats.workloads = run.workloads.size();
  stats.jobs = pool.size();
  stats.wall_seconds = seconds_since(sweep_start);
  stats.scenarios_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.scenarios) / stats.wall_seconds
          : 0.0;
  stats.baseline_cache_misses = run.baselines_needed();
  stats.baseline_cache_hits = stats.scenarios - stats.workloads;
  stats.baseline_cache_hit_rate =
      static_cast<double>(stats.baseline_cache_hits) /
      static_cast<double>(stats.scenarios);
  stats.quarantined = result.errors.size();
  stats.resumed_cells =
      run.options.resume != nullptr ? run.options.resume->records.size() : 0;
  stats.skipped_cells = run.skipped.load();
  stats.pruned_cells = result.pruned.size();
  stats.shard_cells_owned = run.owned_cells();
  stats.shard_cells_foreign = stats.scenarios - stats.shard_cells_owned;
  stats.heartbeats_written = run.heartbeats_written;
  stats.journal_records =
      run.journal.has_value() ? run.journal->records_appended() : 0;
  result.interrupted = stats.skipped_cells > 0;
  return result;
}

}  // namespace

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
  SweepRun run(scenarios, options);
  run.reg.counter("sweep.runs").add(1);
  run.reg.counter("sweep.scenarios").add(scenarios.size());
  resolve(run);
  const shard::ShardSpec shard_spec{options.shard_index, options.shard_count};
  assign_shards(run, shard_spec);

  TraceCache private_cache;
  TraceCache& cache =
      options.trace_cache ? *options.trace_cache : private_cache;
  ThreadPool pool(options.jobs);

  // Static bounds integration (docs/bounds.md). The analyzer describes
  // the fault-free single-schedule replay, so pruning refuses fault plans
  // and per-phase configs outright while the always-on oracle merely
  // disarms (a perturbed or per-phase sweep is still a valid sweep).
  PALS_CHECK_MSG(!options.prune_bounds || run.faults == nullptr,
                 "prune_bounds requires a fault-free sweep (the static "
                 "bounds describe the unperturbed replay)");
  PALS_CHECK_MSG(!options.prune_bounds || !options.base.per_phase,
                 "prune_bounds does not support per-phase configurations "
                 "(no single schedule to bound)");

  std::string config_hash;
  if (!options.journal_path.empty() || options.resume != nullptr)
    config_hash = sweep_config_hash(scenarios, options);
  prefill_from_journal(run, config_hash);
  open_journal(run, config_hash, shard_spec);
  run_baselines(run, pool, cache);
  fan_out(run, pool);
  obs::record_thread_pool(pool.stats(), run.reg);
  run.heartbeat.reset();  // join the beater; heartbeats_written is settled

  SweepResult result = merge(run, pool, sweep_start);
  if (run.faults != nullptr || options.keep_going) {
    // Only touched on the fault-tolerant path so fault-free sweeps keep
    // their exact metric snapshots. The added values are deterministic.
    run.reg.counter("fault.scenario_retries")
        .add(result.stats.transient_retries);
    run.reg.counter("fault.cells_quarantined").add(result.stats.quarantined);
  }
  return result;
}

CellOutcome outcome_of(JournalRecord record,
                       const std::vector<Scenario>& scenarios) {
  const std::size_t i = record.index;
  if (record.kind == JournalRecord::Kind::kRow) return std::move(record.row);
  if (record.kind == JournalRecord::Kind::kPruned)
    return PrunedCell{i,
                      std::move(record.workload),
                      std::move(record.variant),
                      record.lb_normalized_time,
                      record.lb_normalized_energy,
                      record.dominated_by,
                      scenarios[record.dominated_by].variant_label()};
  return ScenarioError{i,
                       std::move(record.workload),
                       std::move(record.variant),
                       fault::error_class_from_string(record.error_class),
                       record.attempts,
                       record.retries,
                       record.backoff_seconds,
                       std::move(record.message)};
}

JournalRecord record_of(std::size_t index, const CellOutcome& outcome) {
  JournalRecord record;
  record.index = index;
  if (const auto* row = std::get_if<ExperimentRow>(&outcome)) {
    record.kind = JournalRecord::Kind::kRow;
    record.row = *row;
  } else if (const auto* e = std::get_if<ScenarioError>(&outcome)) {
    record.kind = JournalRecord::Kind::kError;
    record.workload = e->workload;
    record.variant = e->variant;
    record.error_class = fault::to_string(e->error_class);
    record.attempts = e->attempts;
    record.retries = e->retries;
    record.backoff_seconds = e->backoff_seconds;
    record.message = e->message;
  } else {
    const PrunedCell& p = std::get<PrunedCell>(outcome);
    record.kind = JournalRecord::Kind::kPruned;
    record.workload = p.workload;
    record.variant = p.variant;
    record.lb_normalized_time = p.lb_normalized_time;
    record.lb_normalized_energy = p.lb_normalized_energy;
    record.dominated_by = p.dominated_by;
  }
  return record;
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
