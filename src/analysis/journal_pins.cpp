#include "analysis/journal_pins.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "analysis/journal.hpp"
#include "analysis/sweep.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"

namespace pals {
namespace {

struct PinnedSweep {
  const char* grid;    ///< under configs/
  const char* config;  ///< --config file under configs/, "" for none
  /// --faults (with --keep-going): a file under configs/, or an inline
  /// plan when it contains '='; "" for none.
  const char* faults;
  bool prune_bounds;  ///< --prune-bounds
};

// The last two sweeps journal E and P records: the degraded-node plan
// fails no cell, so the inline plan crashes one cell and exhausts the
// retries of another.
constexpr PinnedSweep kSweeps[] = {
    {"shard_smoke.grid", "", "", false},
    {"shard_smoke.grid", "gigabit_contended.cfg", "", false},
    {"shard_smoke.grid", "", "degraded_node.faults", false},
    {"controller_smoke.grid", "", "", false},
    {"dynamic_pareto.grid", "", "", false},
    {"shard_smoke.grid", "",
     "seed=42; scenario_crash:index=5; scenario_flaky:index=9,failures=9; "
     "scenario_flaky:index=12,failures=1",
     false},
    {"dynamic_pareto.grid", "", "", true},
};

bool inline_plan(const char* faults) {
  return std::string_view(faults).find('=') != std::string_view::npos;
}

/// The pals_sweep invocation whose journal holds the same records.
std::string command_of(const PinnedSweep& sweep) {
  std::string command =
      std::string("pals_sweep --grid=configs/") + sweep.grid + " --jobs=1";
  if (*sweep.config != '\0')
    command += std::string(" --config=configs/") + sweep.config;
  if (inline_plan(sweep.faults))
    command += std::string(" --faults='") + sweep.faults + "' --keep-going";
  else if (*sweep.faults != '\0')
    command += std::string(" --faults=configs/") + sweep.faults +
               " --keep-going";
  if (sweep.prune_bounds) command += " --prune-bounds";
  return command + " --run-dir=DIR";
}

}  // namespace

std::string journal_pins_text(const std::string& source_dir,
                              const std::string& work_dir) {
  const std::string configs = source_dir + "/configs/";
  std::ostringstream out;
  out << "# Result (R), error (E) and pruned (P) records of each sweep's "
         "journal,\n"
         "# each kind sorted by cell index, heartbeats left out. Produced "
         "by\n"
         "# `update_golden --dir=golden` (journal_pins_text,\n"
         "# src/analysis/journal_pins.cpp); each section equals\n"
         "# `for k in R E P; do grep \"^$k \" DIR/journal.palsj | sort -n "
         "-k2; done`\n"
         "# after the command it names.\n";
  std::size_t k = 0;
  for (const PinnedSweep& sweep : kSweeps) {
    SweepOptions options;
    options.jobs = 1;
    if (*sweep.config != '\0')
      apply_config_file(options.base, configs + sweep.config);
    std::optional<fault::Injector> injector;
    if (*sweep.faults != '\0') {
      injector.emplace(fault::FaultPlan::from_file_or_inline(
          inline_plan(sweep.faults) ? sweep.faults : configs + sweep.faults));
      options.faults = &*injector;
      options.keep_going = true;
    }
    options.prune_bounds = sweep.prune_bounds;
    const std::string run_dir = work_dir + "/sweep" + std::to_string(k++);
    std::filesystem::create_directories(run_dir);
    options.journal_path = run_dir + "/journal.palsj";
    run_sweep(SweepGrid::from_file(configs + sweep.grid), options);

    std::vector<JournalRecord> records =
        read_journal(options.journal_path).records;
    std::stable_sort(records.begin(), records.end(),
                     [](const JournalRecord& a, const JournalRecord& b) {
                       return a.index < b.index;
                     });
    out << "# " << command_of(sweep) << '\n';
    for (const JournalRecord::Kind kind :
         {JournalRecord::Kind::kRow, JournalRecord::Kind::kError,
          JournalRecord::Kind::kPruned})
      for (const JournalRecord& record : records)
        if (record.kind == kind) out << record.to_line() << '\n';
  }
  return out.str();
}

}  // namespace pals
