// Branch-and-bound sweep pruning (pals_sweep --prune-bounds,
// docs/bounds.md): pruned cells are provably off the Pareto front, the
// surviving rows and the extracted front are byte-identical to an
// unpruned sweep, prune decisions are jobs-invariant, and the journal's
// "P" records resume to the identical decision set.
#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/journal.hpp"
#include "analysis/pareto.hpp"
#include "scratch_dir.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

/// Slow-drift grid where the dynamic controllers land at exactly 100 %
/// time and strictly dominate the static ones (configs/dynamic_pareto.grid
/// rationale); dominators first so the pruner has completed cells to
/// compare against.
SweepGrid drift_grid() {
  SweepGrid grid;
  grid.workloads = {"amr-drift:16:0.7:48"};
  grid.gear_sets = {"uniform-6"};
  grid.algorithms = {Algorithm::kAvg};
  grid.controllers = {"dynamic_max", "dynamic_avg", "slack", "ewma",
                      "static"};
  return grid;
}

SweepResult run_grid(const SweepGrid& grid, bool prune, int jobs = 1) {
  SweepOptions options;
  options.jobs = jobs;
  options.prune_bounds = prune;
  return run_sweep(grid, options);
}

std::vector<ExperimentRow> front_rows(const std::vector<ExperimentRow>& rows) {
  std::vector<ExperimentRow> front;
  for (const ParetoEntry& e : pareto_front(rows))
    if (e.on_front) front.push_back(e.row);
  return front;
}

TEST(PruneBounds, SkipsDominatedCellsAndPreservesSurvivors) {
  const SweepGrid grid = drift_grid();
  const SweepResult full = run_grid(grid, /*prune=*/false);
  const SweepResult pruned = run_grid(grid, /*prune=*/true);

  ASSERT_FALSE(pruned.pruned.empty());
  EXPECT_EQ(pruned.stats.pruned_cells, pruned.pruned.size());
  EXPECT_EQ(full.rows.size(), grid.expand().size());
  EXPECT_EQ(pruned.rows.size() + pruned.pruned.size(), full.rows.size());

  // Surviving rows are byte-identical to the unpruned sweep minus the
  // pruned cells (pruning never changes a replayed number).
  std::set<std::size_t> skipped;
  for (const PrunedCell& cell : pruned.pruned) {
    skipped.insert(cell.index);
    EXPECT_LT(cell.dominated_by, cell.index);  // dominator completed first
    EXPECT_FALSE(cell.dominated_by_variant.empty());
  }
  std::vector<ExperimentRow> expected;
  for (std::size_t i = 0; i < full.rows.size(); ++i)
    if (!skipped.contains(i)) expected.push_back(full.rows[i]);
  EXPECT_EQ(rows_to_csv(pruned.rows), rows_to_csv(expected));

  // The extracted Pareto front survives intact: only provably dominated
  // cells were skipped.
  EXPECT_EQ(rows_to_csv(front_rows(full.rows)),
            rows_to_csv(front_rows(pruned.rows)));
}

TEST(PruneBounds, EveryPrunedCellIsActuallyDominated) {
  // Ground-truth check of the bound's promise: replay the cells the
  // pruner skipped (via the unpruned sweep) and confirm the recorded
  // dominator beats each one on both objectives.
  const SweepGrid grid = drift_grid();
  const SweepResult full = run_grid(grid, false);
  const SweepResult pruned = run_grid(grid, true);
  for (const PrunedCell& cell : pruned.pruned) {
    const ExperimentRow& victim = full.rows[cell.index];
    const ExperimentRow& dominator = full.rows[cell.dominated_by];
    EXPECT_TRUE(dominates(dominator, victim))
        << cell.variant << " not dominated by " << cell.dominated_by_variant;
    // The lower-bound point really bounds the replayed cell from below.
    EXPECT_LE(cell.lb_normalized_time, victim.normalized_time + 1e-12);
    EXPECT_LE(cell.lb_normalized_energy, victim.normalized_energy + 1e-12);
  }
}

TEST(PruneBounds, DecisionsAreJobsInvariant) {
  const SweepGrid grid = drift_grid();
  const SweepResult serial = run_grid(grid, true, 1);
  const SweepResult parallel = run_grid(grid, true, 8);
  EXPECT_EQ(rows_to_csv(serial.rows), rows_to_csv(parallel.rows));
  EXPECT_EQ(pruned_to_csv(serial.pruned), pruned_to_csv(parallel.pruned));
}

TEST(PruneBounds, JournalRecordsResumeToIdenticalDecisions) {
  const std::string journal =
      (scratch_dir() / "prune_resume_test.palsj").string();
  std::remove(journal.c_str());

  SweepOptions options;
  options.prune_bounds = true;
  options.journal_path = journal;
  const SweepResult first = run_sweep(drift_grid(), options);
  ASSERT_FALSE(first.pruned.empty());

  const JournalReadReport prior = read_journal(journal);
  SweepOptions resumed_options;
  resumed_options.prune_bounds = true;
  resumed_options.resume = &prior;
  const SweepResult resumed = run_sweep(drift_grid(), resumed_options);
  std::remove(journal.c_str());

  // Every cell (rows and pruned alike) was pre-filled from the journal;
  // the reconstructed provenance matches the live run byte for byte.
  EXPECT_EQ(resumed.stats.resumed_cells,
            first.rows.size() + first.pruned.size());
  EXPECT_EQ(rows_to_csv(resumed.rows), rows_to_csv(first.rows));
  EXPECT_EQ(pruned_to_csv(resumed.pruned), pruned_to_csv(first.pruned));
}

TEST(PruneBounds, PrunedRecordRoundTripsThroughJournal) {
  const std::string path = (scratch_dir() / "prune_record.palsj").string();
  std::remove(path.c_str());
  JournalHeader header;
  header.config_hash = "prune-record-test";
  header.scenarios = 8;

  JournalRecord record;
  record.kind = JournalRecord::Kind::kPruned;
  record.index = 7;
  record.workload = "amr-drift:16:0.7:48";
  record.variant = "AVG uniform-6 ewma";
  record.lb_normalized_time = 1.0;
  record.lb_normalized_energy = 0.73125618350000004;  // full precision
  record.dominated_by = 2;
  {
    JournalWriter writer = JournalWriter::create(path, header);
    writer.append(record);
  }
  const JournalReadReport report = read_journal(path);
  std::remove(path.c_str());
  ASSERT_EQ(report.records.size(), 1u);
  const JournalRecord& parsed = report.records[0];
  EXPECT_EQ(parsed.kind, JournalRecord::Kind::kPruned);
  EXPECT_EQ(parsed.index, record.index);
  EXPECT_EQ(parsed.workload, record.workload);
  EXPECT_EQ(parsed.variant, record.variant);
  EXPECT_EQ(parsed.lb_normalized_time, record.lb_normalized_time);
  EXPECT_EQ(parsed.lb_normalized_energy, record.lb_normalized_energy);
  EXPECT_EQ(parsed.dominated_by, record.dominated_by);
}

TEST(PruneBounds, IncompatibleConfigsAreRejected) {
  SweepOptions per_phase;
  per_phase.prune_bounds = true;
  per_phase.base.per_phase = true;
  EXPECT_THROW(run_sweep(drift_grid(), per_phase), Error);
}

TEST(PruneBounds, PrunedCsvIsHeaderOnlyWhenNothingPrunes) {
  EXPECT_EQ(pruned_to_csv({}),
            "index,workload,variant,lb_normalized_time,"
            "lb_normalized_energy,dominated_by,dominated_by_variant\n");
}

}  // namespace
}  // namespace pals
