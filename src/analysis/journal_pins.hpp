// Golden pin of the cell records a crash-safe sweep makes durable.
//
// journal_pins_text runs a fixed list of --jobs=1 sweeps over the shipped
// grids (plain, on the contended platform of configs/gigabit_contended.cfg,
// under the degraded-node fault plan of configs/degraded_node.faults,
// under an inline plan that quarantines two cells, and with
// --prune-bounds), each journaled into its own run directory, and
// renders the `R`, then `E`, then `P` records of each journal, each kind
// sorted by cell index, heartbeats left out. The records carry the
// cells' doubles in round-trip format, so a one-ulp drift of any row
// shows. tools/update_golden writes the text to golden/journal_pins.txt
// and tests/integration/journal_pins_test.cpp requires a fresh rendering
// to match it byte for byte.
#pragma once

#include <string>

namespace pals {

/// The pin text: a comment header naming the producing command, then
/// per sweep a `# pals_sweep ...` line (the equivalent CLI run) and its
/// sorted `R`, `E` and `P` lines. Grids, config and fault files are read
/// from `source_dir`/configs; each journal is written under `work_dir`
/// (created when missing).
std::string journal_pins_text(const std::string& source_dir,
                              const std::string& work_dir);

}  // namespace pals
