// The replay's outputs on seeded random traces, pinned byte for byte by
// golden/replay_pins.csv (regenerate intentionally with
// tools/update_golden and review the diff), and the iteration labels of
// their compute, checked against the traces themselves.
#include "analysis/replay_pins.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <variant>

#include "util/strings.hpp"

namespace pals {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ReplayPins, MatchGolden) {
  const std::vector<std::string> expected = split(
      read_file(std::string(PALS_SOURCE_DIR) + "/golden/replay_pins.csv"),
      '\n');
  const std::vector<std::string> actual = split(replay_pins_csv(), '\n');
  ASSERT_EQ(actual.size(), expected.size());
  // Line by line so a drift names its case and key.
  for (std::size_t i = 0; i < actual.size(); ++i)
    EXPECT_EQ(actual[i], expected[i]) << "line " << i + 1;
}

/// Compute seconds per iteration label (-1 outside every iteration).
using LabelTotals = std::map<std::int32_t, Seconds>;

/// Each rank's traced compute, labelled as the replay labels it: from an
/// iteration's begin marker to its end marker, -1 elsewhere.
LabelTotals traced_compute(const Trace& trace, Rank r) {
  LabelTotals totals;
  std::int32_t iteration = -1;
  for (const Event& e : trace.events(r)) {
    if (const auto* c = std::get_if<ComputeEvent>(&e)) {
      if (c->duration > 0.0) totals[iteration] += c->duration;
    } else if (const auto* m = std::get_if<MarkerEvent>(&e)) {
      if (m->kind == MarkerKind::kIterationBegin) iteration = m->id;
      if (m->kind == MarkerKind::kIterationEnd) iteration = -1;
    }
  }
  return totals;
}

// Without faults or speed differences each burst replays at its traced
// length, so the compute a replayed lane carries under each label is the
// traced compute under that label. An interval merged across an
// iteration boundary moves compute to the wrong label, which no
// comparison of two replay modes sees: both share the merger.
TEST(ReplayPins, ComputeKeepsItsIterationLabel) {
  for (const ReplayPinCase& pin : replay_pin_cases()) {
    ReplayConfig config = pin.config;
    config.faults = nullptr;
    config.relative_speed.clear();
    const ReplayResult result = replay(pin.trace, config);
    for (Rank r = 0; r < pin.trace.n_ranks(); ++r) {
      SCOPED_TRACE(pin.name + " rank " + std::to_string(r));
      LabelTotals replayed;
      for (const StateInterval& iv : result.timeline.intervals(r))
        if (iv.state == RankState::kCompute)
          replayed[iv.iteration] += iv.duration();
      const LabelTotals traced = traced_compute(pin.trace, r);
      ASSERT_EQ(replayed.size(), traced.size());
      for (const auto& [label, seconds] : traced)
        EXPECT_NEAR(replayed[label], seconds, 1e-12) << "iteration " << label;
    }
  }
}

}  // namespace
}  // namespace pals
