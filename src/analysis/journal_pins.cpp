#include "analysis/journal_pins.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
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
  const char* faults;  ///< --faults file under configs/ (with --keep-going)
};

constexpr PinnedSweep kSweeps[] = {
    {"shard_smoke.grid", "", ""},
    {"shard_smoke.grid", "gigabit_contended.cfg", ""},
    {"shard_smoke.grid", "", "degraded_node.faults"},
    {"controller_smoke.grid", "", ""},
    {"dynamic_pareto.grid", "", ""},
};

/// The pals_sweep invocation whose journal holds the same records.
std::string command_of(const PinnedSweep& sweep) {
  std::string command =
      std::string("pals_sweep --grid=configs/") + sweep.grid + " --jobs=1";
  if (*sweep.config != '\0')
    command += std::string(" --config=configs/") + sweep.config;
  if (*sweep.faults != '\0')
    command += std::string(" --faults=configs/") + sweep.faults +
               " --keep-going";
  return command + " --run-dir=DIR";
}

}  // namespace

std::string journal_pins_text(const std::string& source_dir,
                              const std::string& work_dir) {
  const std::string configs = source_dir + "/configs/";
  std::ostringstream out;
  out << "# Result (R) records of each sweep's journal, sorted by cell "
         "index,\n"
         "# without heartbeat or error records. Produced by "
         "`update_golden --dir=golden`\n"
         "# (journal_pins_text, src/analysis/journal_pins.cpp); each "
         "section equals\n"
         "# `grep '^R ' DIR/journal.palsj | sort -n -k2` after the "
         "command it names.\n";
  std::size_t k = 0;
  for (const PinnedSweep& sweep : kSweeps) {
    SweepOptions options;
    options.jobs = 1;
    if (*sweep.config != '\0')
      apply_config_file(options.base, configs + sweep.config);
    std::optional<fault::Injector> injector;
    if (*sweep.faults != '\0') {
      injector.emplace(
          fault::FaultPlan::from_file_or_inline(configs + sweep.faults));
      options.faults = &*injector;
      options.keep_going = true;
    }
    const std::string run_dir = work_dir + "/sweep" + std::to_string(k++);
    std::filesystem::create_directories(run_dir);
    options.journal_path = run_dir + "/journal.palsj";
    run_sweep(SweepGrid::from_file(configs + sweep.grid), options);

    std::vector<JournalRecord> rows;
    for (JournalRecord& record : read_journal(options.journal_path).records)
      if (record.kind == JournalRecord::Kind::kRow)
        rows.push_back(std::move(record));
    std::sort(rows.begin(), rows.end(),
              [](const JournalRecord& a, const JournalRecord& b) {
                return a.index < b.index;
              });
    out << "# " << command_of(sweep) << '\n';
    for (const JournalRecord& record : rows) out << record.to_line() << '\n';
  }
  return out.str();
}

}  // namespace pals
