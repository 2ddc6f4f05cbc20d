#include "shard/merge.hpp"

#include <filesystem>
#include <optional>
#include <utility>
#include <variant>

#include "analysis/journal.hpp"
#include "util/error.hpp"

namespace pals {
namespace shard {

MergeReport merge_shard_journals(const std::vector<Scenario>& scenarios,
                                 const SweepOptions& options,
                                 const std::vector<std::string>& journal_paths,
                                 const std::vector<ScenarioError>&
                                     extra_errors) {
  PALS_CHECK_MSG(!scenarios.empty(), "shard merge has no scenarios");
  const std::string config_hash = sweep_config_hash(scenarios, options);

  MergeReport report;
  std::vector<std::optional<JournalRecord>> slots(scenarios.size());
  std::vector<std::string> slot_lines(scenarios.size());
  std::vector<std::string> slot_source(scenarios.size());
  for (const std::string& path : journal_paths) {
    if (!std::filesystem::exists(path)) continue;
    JournalReadReport journal = read_journal(path);
    PALS_CHECK_MSG(journal.header.scenarios == scenarios.size(),
                   "shard journal '" << path << "' describes "
                       << journal.header.scenarios
                       << " scenarios but this sweep has "
                       << scenarios.size());
    PALS_CHECK_MSG(journal.header.config_hash == config_hash,
                   "shard journal '" << path << "' config hash "
                       << journal.header.config_hash
                       << " does not match this sweep's " << config_hash
                       << " (the journal belongs to a different sweep "
                          "configuration)");
    report.tail_dropped = report.tail_dropped || journal.tail_dropped;
    report.heartbeats_seen += journal.heartbeats.size();
    ++report.journals_read;
    for (JournalRecord& record : journal.records) {
      const std::size_t i = record.index;
      const std::string line = record.to_line();
      if (slots[i].has_value()) {
        // Deterministic partitioning makes one shard own each cell, so a
        // cross-journal duplicate is only legal when it is bit-identical
        // (e.g. the same run dir listed twice).
        PALS_CHECK_MSG(slot_lines[i] == line,
                       "shard journals conflict on cell "
                           << i << ": '" << slot_source[i] << "' and '"
                           << path << "' disagree (partition violated)");
        continue;
      }
      slot_lines[i] = line;
      slot_source[i] = path;
      slots[i] = std::move(record);
    }
  }

  std::vector<std::optional<ScenarioError>> extra_slots(scenarios.size());
  for (const ScenarioError& e : extra_errors) {
    PALS_CHECK_MSG(e.index < scenarios.size(),
                   "extra error index " << e.index << " out of range ("
                                        << scenarios.size() << " scenarios)");
    PALS_CHECK_MSG(!slots[e.index].has_value(),
                   "extra error for cell " << e.index << " but journal '"
                       << slot_source[e.index] << "' already covers it");
    PALS_CHECK_MSG(!extra_slots[e.index].has_value(),
                   "duplicate extra error for cell " << e.index);
    extra_slots[e.index] = e;
  }

  // The canonical-order fold — the same slot walk an in-process sweep
  // performs, so the rendered CSVs are byte-identical to its output.
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (slots[i].has_value()) {
      PALS_CHECK_MSG(options.prune_bounds ||
                         slots[i]->kind != JournalRecord::Kind::kPruned,
                     "shard journal records pruned cell "
                         << i << " but this sweep does not set prune_bounds");
      CellOutcome outcome = outcome_of(std::move(*slots[i]), scenarios);
      if (auto* row = std::get_if<ExperimentRow>(&outcome))
        report.rows.push_back(std::move(*row));
      else if (auto* pruned = std::get_if<PrunedCell>(&outcome))
        report.pruned.push_back(std::move(*pruned));
      else
        report.errors.push_back(std::get<ScenarioError>(std::move(outcome)));
    } else if (extra_slots[i].has_value()) {
      report.errors.push_back(std::move(*extra_slots[i]));
    } else {
      report.missing.push_back(i);
    }
  }
  return report;
}

ScenarioError make_shard_lost_error(const std::vector<Scenario>& scenarios,
                                    int iterations, std::size_t index,
                                    const std::string& message,
                                    int attempts) {
  PALS_CHECK_MSG(index < scenarios.size(),
                 "shard-lost index " << index << " out of range ("
                                     << scenarios.size() << " scenarios)");
  const Scenario& s = scenarios[index];
  ScenarioError error;
  error.index = index;
  error.workload = resolve_workload(s.workload, iterations).display;
  error.variant = s.variant_label();
  error.error_class = fault::ErrorClass::kShardLost;
  error.attempts = attempts;
  error.retries = attempts > 0 ? attempts - 1 : 0;
  error.backoff_seconds = 0.0;
  error.message = message;
  return error;
}

}  // namespace shard
}  // namespace pals
