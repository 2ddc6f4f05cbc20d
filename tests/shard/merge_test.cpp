// Shard-journal merge (shard/merge.hpp): the byte-identity contract.
// Running the same grid split across any shard count — with or without
// quarantined cells — and folding the shard journals must re-render
// results.csv / errors.csv / pruned.csv byte-identical to a
// single-process --jobs=1 run. Also the refusal policy: conflicting
// duplicates, foreign config hashes and out-of-range extras throw
// instead of merging silently wrong artifacts.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "analysis/journal.hpp"
#include "analysis/sweep.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "scratch_dir.hpp"
#include "shard/merge.hpp"
#include "shard/partition.hpp"
#include "util/error.hpp"

namespace pals {
namespace shard {
namespace {

namespace fs = std::filesystem;

SweepGrid small_grid() {
  SweepGrid grid;
  grid.workloads = {"cg:8:0.85:2", "is:8:0.8:2"};
  grid.gear_sets = {"uniform-4", "avg-discrete"};
  grid.algorithms = {Algorithm::kMax};
  grid.betas = {0.4, 0.6};
  grid.iterations = 2;
  return grid;
}

SweepOptions base_options() {
  SweepOptions options;
  options.jobs = 1;
  options.iterations = 2;
  return options;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = scratch_dir() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Run every shard of `scenarios` in-process (the same run_sweep the
/// pals_sweep worker calls) and return the journal paths.
std::vector<std::string> run_shards(const std::vector<Scenario>& scenarios,
                                    const SweepOptions& base,
                                    const fs::path& dir,
                                    std::size_t shard_count) {
  std::vector<std::string> journals;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const fs::path shard_dir = dir / ("shard-" + std::to_string(s));
    fs::create_directories(shard_dir);
    SweepOptions options = base;
    options.shard_index = s;
    options.shard_count = shard_count;
    options.journal_path = (shard_dir / "journal.palsj").string();
    run_sweep(scenarios, options);
    journals.push_back(options.journal_path);
  }
  return journals;
}

TEST(ShardMerge, ByteIdenticalAcrossShardCounts) {
  const std::vector<Scenario> scenarios = small_grid().expand();
  const SweepOptions options = base_options();
  const SweepResult reference = run_sweep(scenarios, options);
  const std::string rows_csv = rows_to_csv(reference.rows);
  const std::string errors_csv = errors_to_csv(reference.errors);

  for (const std::size_t count : {1u, 2u, 5u}) {
    const fs::path dir = fresh_dir("count" + std::to_string(count));
    const std::vector<std::string> journals =
        run_shards(scenarios, options, dir, count);
    const MergeReport merged =
        merge_shard_journals(scenarios, options, journals);
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(merged.journals_read, count);
    EXPECT_EQ(rows_to_csv(merged.rows), rows_csv) << count << " shards";
    EXPECT_EQ(errors_to_csv(merged.errors), errors_csv) << count << " shards";
  }
}

TEST(ShardMerge, QuarantinedCellsMergeByteIdentical) {
  // Deterministic failures by canonical index land in whichever shard
  // owns the cell; the merged errors.csv must not care.
  const std::vector<Scenario> scenarios = small_grid().expand();
  const fault::Injector injector(fault::FaultPlan::parse(
      "scenario_crash:index=2; scenario_flaky:index=5,failures=5"));
  SweepOptions options = base_options();
  options.faults = &injector;
  options.keep_going = true;
  options.bounds_oracle = false;

  const SweepResult reference = run_sweep(scenarios, options);
  ASSERT_FALSE(reference.errors.empty());

  const fs::path dir = fresh_dir("faulted");
  const std::vector<std::string> journals =
      run_shards(scenarios, options, dir, 3);
  const MergeReport merged = merge_shard_journals(scenarios, options, journals);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(rows_to_csv(merged.rows), rows_to_csv(reference.rows));
  EXPECT_EQ(errors_to_csv(merged.errors), errors_to_csv(reference.errors));
}

TEST(ShardMerge, PrunedSweepMergesByteIdenticalByGroup) {
  // Under --prune-bounds the partition is by workload group, so each
  // shard derives exactly the prune decisions a single process would.
  SweepGrid grid;
  grid.workloads = {"cg:8:0.85:2", "mg:8:0.8:2"};
  grid.gear_sets = {"uniform-4", "avg-discrete", "continuous-unlimited"};
  grid.algorithms = {Algorithm::kMax};
  grid.betas = {0.4, 0.6};
  grid.iterations = 2;
  const std::vector<Scenario> scenarios = grid.expand();
  SweepOptions options = base_options();
  options.prune_bounds = true;

  const SweepResult reference = run_sweep(scenarios, options);

  for (const std::size_t count : {2u, 5u}) {
    const fs::path dir = fresh_dir("prune" + std::to_string(count));
    const std::vector<std::string> journals =
        run_shards(scenarios, options, dir, count);
    const MergeReport merged =
        merge_shard_journals(scenarios, options, journals);
    EXPECT_TRUE(merged.complete());
    EXPECT_EQ(rows_to_csv(merged.rows), rows_to_csv(reference.rows));
    EXPECT_EQ(pruned_to_csv(merged.pruned), pruned_to_csv(reference.pruned));
  }
}

TEST(ShardMerge, MissingShardIsReportedThenFilledByExtras) {
  const std::vector<Scenario> scenarios = small_grid().expand();
  const SweepOptions options = base_options();
  const fs::path dir = fresh_dir("missing");
  std::vector<std::string> journals = run_shards(scenarios, options, dir, 2);
  // Drop shard 1's journal: its cells must surface as missing, exactly
  // the cells the partition assigns to shard 1.
  journals.resize(1);
  const MergeReport partial = merge_shard_journals(scenarios, options, journals);
  EXPECT_FALSE(partial.complete());
  ASSERT_FALSE(partial.missing.empty());
  for (const std::size_t index : partial.missing)
    EXPECT_EQ(shard_of_cell(index, 2), 1u) << index;

  // The supervisor's degraded path: synthesize shard-lost quarantines
  // for the missing cells and re-merge — now complete, with the loss
  // visible in errors.csv.
  std::vector<ScenarioError> extras;
  for (const std::size_t index : partial.missing)
    extras.push_back(make_shard_lost_error(scenarios, options.iterations,
                                           index, "shard 1/2 lost", 3));
  const MergeReport merged =
      merge_shard_journals(scenarios, options, journals, extras);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.errors.size(), extras.size());
  EXPECT_NE(errors_to_csv(merged.errors).find("shard-lost"),
            std::string::npos);
  // Rows for the surviving shard are untouched by the quarantine.
  EXPECT_EQ(merged.rows.size(), scenarios.size() - extras.size());
}

TEST(ShardMerge, ExtraErrorForCoveredCellThrows) {
  const std::vector<Scenario> scenarios = small_grid().expand();
  const SweepOptions options = base_options();
  const fs::path dir = fresh_dir("extra_conflict");
  const std::vector<std::string> journals =
      run_shards(scenarios, options, dir, 1);
  const std::vector<ScenarioError> extras = {
      make_shard_lost_error(scenarios, options.iterations, 0, "bogus", 1)};
  EXPECT_THROW(merge_shard_journals(scenarios, options, journals, extras),
               Error);
}

TEST(ShardMerge, ConflictingDuplicateAcrossJournalsThrows) {
  const std::vector<Scenario> scenarios = small_grid().expand();
  const SweepOptions options = base_options();
  const fs::path dir = fresh_dir("conflict");
  std::vector<std::string> journals = run_shards(scenarios, options, dir, 1);

  // A second journal claiming cell 0 with a different result: the
  // partition invariant was violated somewhere — refuse, don't guess.
  const JournalReadReport first = read_journal(journals[0]);
  JournalRecord forged = first.records[0];
  forged.row.normalized_energy += 0.25;
  JournalHeader header = first.header;
  const fs::path rogue = dir / "rogue.palsj";
  JournalWriter writer = JournalWriter::create(rogue.string(), header);
  writer.append(forged);
  journals.push_back(rogue.string());

  try {
    merge_shard_journals(scenarios, options, journals);
    FAIL() << "conflicting duplicate across journals must not merge";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("partition violated"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardMerge, IdenticalDuplicateAcrossJournalsCollapses) {
  const std::vector<Scenario> scenarios = small_grid().expand();
  const SweepOptions options = base_options();
  const fs::path dir = fresh_dir("dup");
  std::vector<std::string> journals = run_shards(scenarios, options, dir, 1);
  journals.push_back(journals[0]);  // same run dir listed twice
  const MergeReport merged = merge_shard_journals(scenarios, options, journals);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.rows.size(), scenarios.size());
}

TEST(ShardMerge, ForeignConfigHashThrows) {
  const std::vector<Scenario> scenarios = small_grid().expand();
  const SweepOptions options = base_options();
  const fs::path dir = fresh_dir("hash");
  const std::vector<std::string> journals =
      run_shards(scenarios, options, dir, 1);
  // Same journal, different live sweep (β grid changed): the hash in the
  // header no longer matches and the merge must refuse.
  SweepGrid other = small_grid();
  other.betas = {0.5};
  EXPECT_THROW(
      merge_shard_journals(other.expand(), options, journals), Error);
}

TEST(ShardMerge, HeartbeatsAreCountedButNeverMerged) {
  const std::vector<Scenario> scenarios = small_grid().expand();
  const SweepOptions options = base_options();
  const fs::path dir = fresh_dir("heartbeats");
  const std::vector<std::string> journals =
      run_shards(scenarios, options, dir, 2);
  const MergeReport before = merge_shard_journals(scenarios, options, journals);

  // Interleave liveness beats after the fact: cell slots — and the
  // rendered CSV — must not move by a byte.
  JournalWriter writer = JournalWriter::open_existing(journals[0]);
  for (std::size_t seq = 0; seq < 3; ++seq) {
    JournalRecord beat;
    beat.kind = JournalRecord::Kind::kHeartbeat;
    beat.index = seq;
    beat.shard = "0/2";
    beat.cells_done = seq;
    beat.unix_seconds = 1754600000.0 + static_cast<double>(seq);
    writer.append(beat);
  }
  const MergeReport after = merge_shard_journals(scenarios, options, journals);
  EXPECT_EQ(after.heartbeats_seen, before.heartbeats_seen + 3);
  EXPECT_EQ(rows_to_csv(after.rows), rows_to_csv(before.rows));
  EXPECT_EQ(errors_to_csv(after.errors), errors_to_csv(before.errors));
}

TEST(ShardMerge, AbsentJournalPathsAreSkippedNotErrors) {
  const std::vector<Scenario> scenarios = small_grid().expand();
  const SweepOptions options = base_options();
  const fs::path dir = fresh_dir("absent");
  std::vector<std::string> journals = run_shards(scenarios, options, dir, 1);
  journals.push_back((dir / "never-created" / "journal.palsj").string());
  const MergeReport merged = merge_shard_journals(scenarios, options, journals);
  EXPECT_EQ(merged.journals_read, 1u);
  EXPECT_TRUE(merged.complete());
}

}  // namespace
}  // namespace shard
}  // namespace pals
