// The replay's outputs on seeded random traces, pinned byte for byte by
// golden/replay_pins.csv (regenerate intentionally with
// tools/update_golden and review the diff).
#include "analysis/replay_pins.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

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

}  // namespace
}  // namespace pals
