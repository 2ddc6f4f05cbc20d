// Crash-safe sweep execution, in process: interrupt-then-resume must
// reproduce the uninterrupted run byte-for-byte (results AND errors CSV,
// at any jobs count, with or without injected faults), a resume journal
// from a different configuration must be refused, cancellation must skip
// cleanly, and the per-cell watchdog must quarantine as kTimeout.
#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/journal.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "scratch_dir.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

namespace fs = std::filesystem;

/// 2 workloads x 2 gear sets x 2 algorithms x 2 betas = 16 cells: enough
/// that cancellation mid-run always leaves unstarted cells even at
/// --jobs 8 (at most 8 in flight + a couple of pickups before the cancel
/// flag is visible).
std::vector<Scenario> grid16() {
  SweepGrid grid;
  grid.workloads = {"cg:8:0.9:2", "is:8:0.8:2"};
  grid.gear_sets = {"uniform-4", "avg-discrete"};
  grid.algorithms = {Algorithm::kMax, Algorithm::kAvg};
  grid.betas = {0.4, 0.6};
  grid.iterations = 2;
  return grid.expand();
}

SweepOptions base_options(int jobs) {
  SweepOptions options;
  options.jobs = jobs;
  options.iterations = 2;
  return options;
}

std::string journal_in_temp(const std::string& name) {
  const fs::path path = scratch_dir() / name;
  fs::remove(path);
  return path.string();
}

/// Interrupt a journaled sweep after `after` durable records, then resume
/// it at `resume_jobs`; assert the stitched result is byte-identical to
/// `reference`.
void interrupt_and_resume(const std::vector<Scenario>& scenarios,
                          const SweepOptions& base, const SweepResult& reference,
                          const std::string& journal, std::size_t after,
                          int interrupt_jobs, int resume_jobs) {
  std::atomic<bool> cancel{false};
  SweepOptions interrupted = base;
  interrupted.jobs = interrupt_jobs;
  interrupted.journal_path = journal;
  interrupted.cancel = &cancel;
  interrupted.on_journal_record = [&cancel, after](std::size_t appended) {
    if (appended >= after) cancel.store(true);
  };
  const SweepResult partial = run_sweep(scenarios, interrupted);
  ASSERT_TRUE(partial.interrupted);
  ASSERT_GT(partial.stats.skipped_cells, 0u);
  ASSERT_GE(partial.stats.journal_records, after);

  const JournalReadReport prior = read_journal(journal);
  ASSERT_EQ(prior.records.size(), partial.stats.journal_records);

  SweepOptions resumed = base;
  resumed.jobs = resume_jobs;
  resumed.journal_path = journal;
  resumed.resume = &prior;
  const SweepResult full = run_sweep(scenarios, resumed);
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(full.stats.resumed_cells, prior.records.size());

  // The whole point: the stitched run is indistinguishable from one that
  // was never interrupted.
  EXPECT_EQ(rows_to_csv(full.rows), rows_to_csv(reference.rows));
  EXPECT_EQ(errors_to_csv(full.errors), errors_to_csv(reference.errors));

  // And the journal now covers every cell.
  const JournalReadReport complete = read_journal(journal);
  EXPECT_EQ(complete.records.size(), scenarios.size());
}

TEST(ResumeSweep, InterruptThenResumeIsByteIdenticalSerial) {
  const std::vector<Scenario> scenarios = grid16();
  const SweepResult reference = run_sweep(scenarios, base_options(1));
  interrupt_and_resume(scenarios, base_options(1), reference,
                       journal_in_temp("resume_serial.palsj"),
                       /*after=*/3, /*interrupt_jobs=*/1, /*resume_jobs=*/1);
}

TEST(ResumeSweep, InterruptThenResumeIsByteIdenticalAcrossJobCounts) {
  const std::vector<Scenario> scenarios = grid16();
  const SweepResult reference = run_sweep(scenarios, base_options(1));
  // Interrupt a parallel run, resume at a different parallelism.
  interrupt_and_resume(scenarios, base_options(1), reference,
                       journal_in_temp("resume_jobs.palsj"),
                       /*after=*/5, /*interrupt_jobs=*/8, /*resume_jobs=*/1);
  interrupt_and_resume(scenarios, base_options(1), reference,
                       journal_in_temp("resume_jobs2.palsj"),
                       /*after=*/3, /*interrupt_jobs=*/1, /*resume_jobs=*/8);
}

TEST(ResumeSweep, ControllerGridInterruptThenResumeIsByteIdentical) {
  // The controller axis is part of the sweep config hash; an interrupted
  // controller sweep must stitch back together byte-for-byte like any
  // other — per-iteration schedules included (they feed the energy
  // column of every dynamic row).
  SweepGrid grid;
  grid.workloads = {"amr-drift:8:0.7:4", "cg:8:0.9:2"};
  grid.gear_sets = {"uniform-4"};
  grid.algorithms = {Algorithm::kAvg};
  grid.controllers = {"static", "dynamic_max", "slack"};
  grid.betas = {0.4, 0.6};
  grid.iterations = 2;
  const std::vector<Scenario> scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 12u);
  const SweepResult reference = run_sweep(scenarios, base_options(1));
  interrupt_and_resume(scenarios, base_options(1), reference,
                       journal_in_temp("resume_controllers.palsj"),
                       /*after=*/4, /*interrupt_jobs=*/4, /*resume_jobs=*/8);
}

TEST(ResumeSweep, FaultedKeepGoingResumeIsByteIdentical) {
  const fault::Injector injector(fault::FaultPlan::parse(
      "seed=42; scenario_flaky:rate=0.4,failures=2; scenario_crash:index=2"));
  const std::vector<Scenario> scenarios = grid16();
  SweepOptions base = base_options(1);
  base.faults = &injector;
  base.keep_going = true;
  base.retry.max_retries = 3;
  const SweepResult reference = run_sweep(scenarios, base);
  ASSERT_TRUE(reference.has_errors());  // quarantined cells must resume too
  interrupt_and_resume(scenarios, base, reference,
                       journal_in_temp("resume_faulted.palsj"),
                       /*after=*/4, /*interrupt_jobs=*/4, /*resume_jobs=*/8);
}

TEST(ResumeSweep, FullJournalResumeRunsNothing) {
  const std::vector<Scenario> scenarios = grid16();
  SweepOptions journaled = base_options(4);
  journaled.journal_path = journal_in_temp("resume_full.palsj");
  const SweepResult reference = run_sweep(scenarios, journaled);
  EXPECT_EQ(reference.stats.journal_records, scenarios.size());

  const JournalReadReport prior = read_journal(journaled.journal_path);
  SweepOptions resumed = base_options(8);
  resumed.journal_path = journaled.journal_path;
  resumed.resume = &prior;
  const SweepResult replayed = run_sweep(scenarios, resumed);

  EXPECT_EQ(replayed.stats.resumed_cells, scenarios.size());
  EXPECT_EQ(replayed.stats.journal_records, 0u);     // nothing re-appended
  EXPECT_EQ(replayed.stats.baseline_cache_misses, 0u);  // no baselines rerun
  EXPECT_EQ(rows_to_csv(replayed.rows), rows_to_csv(reference.rows));
}

TEST(ResumeSweep, ConfigHashMismatchIsRefused) {
  const std::vector<Scenario> scenarios = grid16();
  SweepOptions journaled = base_options(2);
  journaled.journal_path = journal_in_temp("resume_hash.palsj");
  run_sweep(scenarios, journaled);

  const JournalReadReport prior = read_journal(journaled.journal_path);
  SweepOptions resumed = journaled;
  resumed.resume = &prior;
  resumed.iterations = 11;  // result-affecting change => different hash
  try {
    run_sweep(scenarios, resumed);
    FAIL() << "resume across a config change must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does not match"), std::string::npos)
        << e.what();
  }
}

TEST(ResumeSweep, ScenarioCountMismatchIsRefused) {
  const std::vector<Scenario> scenarios = grid16();
  SweepOptions options = base_options(1);
  JournalReadReport bogus;
  // Correct hash, wrong cardinality: e.g. the journal of a narrower grid.
  bogus.header.config_hash = sweep_config_hash(scenarios, options);
  bogus.header.scenarios = 5;
  options.resume = &bogus;
  try {
    run_sweep(scenarios, options);
    FAIL() << "scenario-count mismatch must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("describes 5 scenarios"),
              std::string::npos)
        << e.what();
  }
}

TEST(ResumeSweep, PresetCancelSkipsEverything) {
  const std::vector<Scenario> scenarios = grid16();
  std::atomic<bool> cancel{true};
  SweepOptions options = base_options(4);
  options.cancel = &cancel;
  const SweepResult result = run_sweep(scenarios, options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.stats.skipped_cells, scenarios.size());
  EXPECT_TRUE(result.rows.empty());
  EXPECT_TRUE(result.errors.empty());
}

TEST(ResumeSweep, NegativeCellTimeoutIsRejected) {
  SweepOptions options = base_options(1);
  options.cell_timeout_seconds = -1.0;
  EXPECT_THROW(run_sweep(grid16(), options), Error);
}

TEST(Watchdog, TinyTimeoutQuarantinesEveryCellAsTimeout) {
  const std::vector<Scenario> scenarios = grid16();
  SweepOptions options = base_options(1);
  options.keep_going = true;
  options.cell_timeout_seconds = 1e-9;  // expires on the first event
  const SweepResult result = run_sweep(scenarios, options);
  ASSERT_EQ(result.errors.size(), scenarios.size());
  EXPECT_TRUE(result.rows.empty());
  for (const ScenarioError& error : result.errors) {
    EXPECT_EQ(error.error_class, fault::ErrorClass::kTimeout)
        << error.describe();
    EXPECT_NE(error.message.find("wall-clock watchdog expired"),
              std::string::npos)
        << error.message;
  }

  // The watchdog message names the limit, never the measured elapsed
  // time, so quarantine records stay byte-stable run over run and across
  // thread counts.
  SweepOptions parallel = options;
  parallel.jobs = 8;
  const SweepResult again = run_sweep(scenarios, parallel);
  EXPECT_EQ(errors_to_csv(result.errors), errors_to_csv(again.errors));
}

TEST(Watchdog, GenerousTimeoutChangesNothing) {
  const std::vector<Scenario> scenarios = grid16();
  const SweepResult plain = run_sweep(scenarios, base_options(2));
  SweepOptions guarded = base_options(2);
  guarded.cell_timeout_seconds = 3600.0;
  const SweepResult watched = run_sweep(scenarios, guarded);
  EXPECT_EQ(rows_to_csv(watched.rows), rows_to_csv(plain.rows));
  EXPECT_FALSE(watched.has_errors());
}

}  // namespace
}  // namespace pals
