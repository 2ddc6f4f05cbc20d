// Parallel scenario-sweep engine.
//
// Every figure/table reproduction is a grid of (workload × gear set ×
// algorithm × β) scenarios, each an independent run_pipeline call — an
// embarrassingly parallel structure the serial drivers leave on the
// table. This layer fans a declarative grid out across a work-stealing
// thread pool (util/thread_pool.hpp) with two guarantees:
//
//  * Determinism: results are merged in canonical grid order into
//    pre-allocated slots, so the output rows — and the CSV rendered from
//    them — are byte-identical regardless of the thread count.
//  * Baseline sharing: the baseline replay of each workload depends only
//    on the trace and the platform, not on the gear point, so it is
//    computed once per workload and reused by every scenario instead of
//    once per (workload, gear, algorithm, β) combination.
//
// Fault tolerance (SweepOptions::faults / keep_going / retry): each cell
// runs under fault::run_guarded — transient failures retry with
// deterministic simulated backoff, persistent ones are quarantined into
// SweepResult::errors while the surviving cells still aggregate in
// canonical order. See docs/faults.md.
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/journal.hpp"
#include "core/algorithms.hpp"
#include "fault/guard.hpp"
#include "fault/injector.hpp"

namespace pals {

/// Parse an algorithm name ("max", "avg", "energy-optimal"); throws
/// pals::Error on anything else.
Algorithm algorithm_by_name(const std::string& name);

/// One point of the scenario grid.
struct Scenario {
  /// Registry instance name ("CG-32") or an inline workload spec
  /// "family:ranks:target_lb[:iterations]" (e.g. "lu:32:0.93:6").
  std::string workload;
  /// Gear-set name for gear_set_by_name() ("uniform-6", "avg-discrete",
  /// "continuous-unlimited", ...).
  std::string gear_set = "uniform-6";
  Algorithm algorithm = Algorithm::kMax;
  double beta = 0.5;
  /// Variant label for the result row; empty derives one from the
  /// controller / gear set / algorithm / β.
  std::string label{};
  /// Online DVFS controller name (core/controllers.hpp): "static" (the
  /// paper's one-shot assignment), "dynamic_max", "dynamic_avg", "slack",
  /// "ewma" or "jitter".
  std::string controller = "static";
  /// Settings-table overrides (analysis/experiments.hpp, apply_setting)
  /// applied last, in order: the power and controller knobs a figure
  /// varies per cell ("static_fraction", "activity_ratio", ...). A sweep
  /// shares one baseline per workload, so run_sweep rejects a setting
  /// that changes the platform.
  std::vector<std::pair<std::string, double>> settings{};

  std::string variant_label() const;
  /// The cell's pipeline configuration: `base` with this scenario's gear
  /// set, algorithm, controller, β and settings, lint off (a sweep lints
  /// each workload once, up front). Throws pals::Error on an unknown gear
  /// set, controller name or setting.
  PipelineConfig cell_config(const PipelineConfig& base) const;
};

/// Declarative cross-product grid; expand() yields the canonical scenario
/// order (workload-major, then gear set, algorithm, β).
struct SweepGrid {
  std::vector<std::string> workloads;
  std::vector<std::string> gear_sets;
  std::vector<Algorithm> algorithms = {Algorithm::kMax};
  /// Controller names (see Scenario::controller); validated on expand().
  std::vector<std::string> controllers = {"static"};
  std::vector<double> betas = {0.5};
  /// Iterations for workloads that do not carry their own count.
  int iterations = 10;

  /// Parse a key = value grid file (util/kvconfig.hpp) with
  /// comma-separated lists:
  ///
  ///   workloads   = CG-32, MG-32, lu:32:0.93:6
  ///   gear_sets   = uniform-6, avg-discrete
  ///   algorithms  = max, avg
  ///   controllers = static, dynamic_max, slack
  ///   betas       = 0.5
  ///   iterations  = 10
  static SweepGrid from_file(const std::string& path);

  void validate() const;
  std::vector<Scenario> expand() const;
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial.
  int jobs = 1;
  /// Iterations for registry workloads and specs without an explicit
  /// count (SweepGrid::expand carries the grid's value through
  /// run_sweep(grid, ...)).
  int iterations = 10;
  /// Configuration applied to every scenario; the scenario's gear set,
  /// algorithm and β override the corresponding fields. Platform and
  /// power knobs (static fraction, activity ratio, ...) pass through.
  /// Setting base.lint statically verifies every workload trace once,
  /// up front (phase 1), aborting the sweep with a full lint report
  /// instead of a mid-replay deadlock throw.
  PipelineConfig base = default_pipeline_config(paper_uniform(6));
  /// Optional shared trace cache (must outlive the call); run_sweep uses
  /// a private one when null.
  TraceCache* trace_cache = nullptr;
  /// When non-null, a periodic progress line
  /// ("sweep: k/N scenarios, elapsed Xs, ETA Ys") is written to this
  /// stream while the scenario fan-out runs, driven by the
  /// "sweep.scenarios_completed" metrics counter (pals_sweep --progress
  /// points this at stderr). Null (the default) disables progress output.
  std::ostream* progress_stream = nullptr;
  /// Seconds between progress lines.
  double progress_interval_seconds = 1.0;
  /// Optional fault injector (not owned; must outlive the call).
  /// Simulated faults (link_degrade, node_slowdown, gear_stuck,
  /// msg_delay_jitter) perturb every scenario's replays — the injector is
  /// threaded through PipelineConfig::replay.faults, overriding whatever
  /// `base` carries. Scenario faults (scenario_flaky, scenario_crash)
  /// fail cells by canonical grid index before the pipeline runs.
  const fault::Injector* faults = nullptr;
  /// Quarantine failing cells into SweepResult::errors and keep sweeping
  /// instead of aborting on the first scenario error. Lint and baseline
  /// failures quarantine every cell of the affected workload; other
  /// workloads are unaffected.
  bool keep_going = false;
  /// Retry policy for transient failures (fault::TransientError). Backoff
  /// is accounted in simulated seconds — never slept — so retried sweeps
  /// stay byte-identical across thread counts.
  fault::RetryPolicy retry;

  // --- Crash-safe execution (docs/resume.md) -------------------------------

  /// When non-empty, every terminal cell (result row or quarantined
  /// error) is durably appended to this journal file (analysis/
  /// journal.hpp) the moment it completes, making the sweep resumable
  /// after a crash. Created fresh unless `resume` is also set, in which
  /// case the existing journal is extended.
  std::string journal_path;
  /// Journal of a previous, interrupted run of the *same* sweep (not
  /// owned; must outlive the call). Cells it records are pre-filled into
  /// their canonical slots and skipped; only the remainder re-runs.
  /// run_sweep throws if the journal's config hash or scenario count
  /// disagrees with the live sweep — jobs and cell_timeout_seconds may
  /// change between runs, everything result-affecting may not.
  const JournalReadReport* resume = nullptr;
  /// Per-cell wall-clock watchdog, seconds (0 = off): threaded into
  /// ReplayConfig::max_wall_seconds for the baseline and every scenario
  /// replay, so a host-side hang becomes a structured kTimeout error the
  /// fault machinery can quarantine instead of wedging the sweep. Host-
  /// time dependent — keep off in determinism comparisons.
  double cell_timeout_seconds = 0.0;
  /// Cooperative cancellation flag (not owned; may be set from a signal
  /// handler). Once true, cells that have not started are skipped —
  /// in-flight cells finish and are journaled — and the sweep returns
  /// with SweepResult::interrupted set instead of throwing.
  const std::atomic<bool>* cancel = nullptr;
  /// Test hook: invoked after each durable journal append with the
  /// number of records this run has appended so far. Called with the
  /// journal lock held — keep it cheap. pals_sweep's --kill-after /
  /// --interrupt-after use it to die at a deterministic point.
  std::function<void(std::size_t)> on_journal_record;

  // --- Sharded execution (docs/sharding.md) --------------------------------

  /// Deterministic shard partitioning: this process owns only the grid
  /// cells shard::shard_of_cell (or, with prune_bounds, whole workload
  /// groups via shard::shard_of_group) assigns to shard_index of
  /// shard_count. Foreign cells are not run, journaled or counted as
  /// skipped; the shard's results/errors/pruned cover exactly its own
  /// subset, and pals_shepherd's merge folds the shards back into the
  /// unsharded byte-identical artifacts. shard_count == 1 (default)
  /// disables sharding. Execution-only — excluded from
  /// sweep_config_hash, so every shard journal (and the unsharded run)
  /// shares one hash.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Liveness heartbeats (docs/sharding.md): when > 0 and a journal is
  /// active, a background thread appends one "H" record every interval
  /// so a supervisor can tell a slow worker from a hung one. Host-time
  /// dependent, liveness-only; never invokes on_journal_record and
  /// never affects cell records or merged CSVs. 0 (default) disables.
  double heartbeat_interval_seconds = 0.0;

  // --- Static bounds integration (docs/bounds.md) --------------------------

  /// Branch-and-bound cell pruning: before a cell replays, its static
  /// lower-bound point (bounds::analyze) is compared against the cells of
  /// the same workload that already completed; when one Pareto-dominates
  /// the optimistic point, the replay is provably off the front and is
  /// skipped (recorded in SweepResult::pruned, journal kind "P", no
  /// results.csv row). Surviving rows — and the extracted Pareto front —
  /// stay byte-identical to an unpruned sweep. Cells of one workload run
  /// serially (workloads still fan out across threads) so the dominator
  /// set is deterministic at any jobs count. Incompatible with fault
  /// injection and per-phase configs (run_sweep throws).
  bool prune_bounds = false;
  /// Post-replay soundness oracle: assert every replayed cell lands inside
  /// its static makespan/energy interval, failing the cell with the
  /// kBoundViolationTime / kBoundViolationEnergy diagnostics on escape.
  /// On by default; disarmed automatically under fault injection or
  /// per-phase configs (the analyzer does not model either).
  bool bounds_oracle = true;
};

/// Fingerprint of everything that determines a sweep's *results*: the
/// scenario list, iterations, keep_going, the retry policy and the fault
/// plan. Deliberately excludes jobs, progress, journaling and the cell
/// timeout, which may differ between an interrupted run and its resume.
/// Stored in the journal header; resume validates it.
std::string sweep_config_hash(const std::vector<Scenario>& scenarios,
                              const SweepOptions& options);

/// Provenance of one cell skipped by SweepOptions::prune_bounds: the
/// static lower-bound point that was dominated and the completed cell
/// that dominated it (docs/bounds.md).
struct PrunedCell {
  std::size_t index = 0;        ///< canonical grid index of the pruned cell
  std::string workload;         ///< display name
  std::string variant;          ///< scenario variant label
  double lb_normalized_time = 0.0;    ///< optimistic point, time axis
  double lb_normalized_energy = 0.0;  ///< optimistic point, energy axis
  std::size_t dominated_by = 0;       ///< grid index of the dominating cell
  std::string dominated_by_variant;   ///< its variant label
};

/// One quarantined grid cell (only produced with SweepOptions::keep_going).
struct ScenarioError {
  std::size_t index = 0;    ///< canonical grid index of the failed cell
  std::string workload;     ///< display name
  std::string variant;      ///< scenario variant label
  fault::ErrorClass error_class = fault::ErrorClass::kPermanent;
  int attempts = 1;         ///< attempts made (retries + 1)
  int retries = 0;
  Seconds backoff_seconds = 0.0;  ///< simulated backoff accrued
  std::string message;      ///< final error text

  /// One-line "cell <index> <workload> [<variant>]: <class> ..." report.
  std::string describe() const;
};

/// A grid cell's terminal outcome (monostate until it has one): a result
/// row, a quarantined error or a pruned cell, journaled as one R, E or P
/// record.
using CellOutcome =
    std::variant<std::monostate, ExperimentRow, ScenarioError, PrunedCell>;

/// The outcome an R, E or P journal record stands for; a pruned cell's
/// dominator is named from `scenarios`. Resume and the shard merge read
/// journals through it.
CellOutcome outcome_of(JournalRecord record,
                       const std::vector<Scenario>& scenarios);

/// The journal record of cell `index`'s terminal `outcome`.
JournalRecord record_of(std::size_t index, const CellOutcome& outcome);

/// Timing/throughput counters of one sweep, for the machine-readable
/// summary (timings are wall-clock and therefore *not* deterministic —
/// only SweepResult::rows is).
struct SweepStats {
  std::size_t scenarios = 0;
  std::size_t workloads = 0;  ///< unique workloads (= baseline replays run)
  int jobs = 1;
  double wall_seconds = 0.0;
  double scenarios_per_second = 0.0;
  std::size_t baseline_cache_misses = 0;  ///< baselines actually computed
  std::size_t baseline_cache_hits = 0;    ///< scenarios served from cache
  double baseline_cache_hit_rate = 0.0;
  double scenario_seconds_total = 0.0;  ///< Σ per-scenario replay time
  double scenario_seconds_max = 0.0;    ///< slowest single scenario
  /// Fault-tolerance accounting (all deterministic).
  std::size_t quarantined = 0;       ///< cells that ended in errors
  std::size_t transient_retries = 0; ///< retry attempts across all cells
  double backoff_seconds = 0.0;      ///< simulated backoff accrued
  /// Crash-safe execution accounting (docs/resume.md).
  std::size_t resumed_cells = 0;   ///< cells pre-filled from a resume journal
  std::size_t skipped_cells = 0;   ///< cells skipped by cancellation
  std::size_t journal_records = 0; ///< records durably appended this run
  /// Cells skipped by --prune-bounds (docs/bounds.md); deterministic.
  std::size_t pruned_cells = 0;
  /// Sharded execution accounting (docs/sharding.md); owned/foreign are
  /// deterministic, heartbeats are host-time driven.
  std::size_t shard_cells_owned = 0;    ///< cells this shard is assigned
  std::size_t shard_cells_foreign = 0;  ///< cells owned by other shards
  std::size_t heartbeats_written = 0;   ///< "H" records appended this run

  /// "key = value" lines, parseable by util/kvconfig.hpp.
  std::string to_kv() const;
};

struct SweepResult {
  /// One row per *successful* scenario, in canonical grid order (every
  /// scenario succeeds when no faults are injected and nothing fails).
  std::vector<ExperimentRow> rows;
  /// Wall-clock seconds each successful scenario's pipeline took (same
  /// order as rows).
  std::vector<double> scenario_seconds;
  /// Quarantined cells in canonical grid order; empty unless
  /// SweepOptions::keep_going let failing cells be recorded.
  std::vector<ScenarioError> errors;
  /// Cells skipped by SweepOptions::prune_bounds, canonical grid order.
  std::vector<PrunedCell> pruned;
  SweepStats stats;
  /// Cancellation (SweepOptions::cancel) stopped the sweep before every
  /// cell ran: rows/errors cover only the cells that reached a terminal
  /// state. With a journal the run is resumable; callers should exit
  /// with ToolExit::kInterrupted rather than treat the output as final.
  bool interrupted = false;

  bool has_errors() const { return !errors.empty(); }
};

/// Run an explicit scenario list. Scenario errors (unknown workload or
/// gear set, a setting that changes the platform) throw pals::Error
/// naming the offending scenario; runtime cell failures throw unless
/// SweepOptions::keep_going quarantines them.
SweepResult run_sweep(const std::vector<Scenario>& scenarios,
                      const SweepOptions& options = {});

/// Expand and run a grid (grid.iterations overrides options.iterations).
SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& options = {});

/// Render quarantined cells as deterministic CSV. The header line is
/// always emitted, so a clean keep_going sweep yields a header-only file
/// (an unambiguous "nothing was quarantined" artifact). Multi-line
/// diagnostics (lint reports, deadlock cycles) are flattened onto one
/// line so every record stays a single CSV row.
std::string errors_to_csv(const std::vector<ScenarioError>& errors);

/// Write errors_to_csv(errors) to `path` (throws on I/O failure).
void write_errors_csv(const std::vector<ScenarioError>& errors,
                      const std::string& path);

/// Render pruned-cell provenance as deterministic CSV (header always
/// emitted, like errors_to_csv).
std::string pruned_to_csv(const std::vector<PrunedCell>& pruned);

/// Write pruned_to_csv(pruned) to `path` (throws on I/O failure).
void write_pruned_csv(const std::vector<PrunedCell>& pruned,
                      const std::string& path);

}  // namespace pals
