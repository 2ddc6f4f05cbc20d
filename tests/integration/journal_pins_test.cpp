// The result, error and pruned records journaled sweeps make durable,
// pinned byte for byte by golden/journal_pins.txt (regenerate
// intentionally with tools/update_golden and review the diff).
#include "analysis/journal_pins.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scratch_dir.hpp"
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

TEST(SweepRecordPins, MatchGolden) {
  const std::vector<std::string> expected = split(
      read_file(std::string(PALS_SOURCE_DIR) + "/golden/journal_pins.txt"),
      '\n');
  const std::vector<std::string> actual =
      split(journal_pins_text(PALS_SOURCE_DIR, scratch_dir().string()), '\n');
  ASSERT_EQ(actual.size(), expected.size());
  // Line by line so a drift names its record.
  for (std::size_t i = 0; i < actual.size(); ++i)
    EXPECT_EQ(actual[i], expected[i]) << "line " << i + 1;
}

}  // namespace
}  // namespace pals
