// The row-CSV golden harness: save/load round trip and tolerance-based
// drift reports. The paper's figures themselves are pinned byte for byte
// under results/ (tests/smoke_results.cmake).
#include "analysis/golden.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "scratch_dir.hpp"
#include "util/error.hpp"

namespace pals {
namespace {

TEST(GoldenCsv, SaveLoadRoundTrip) {
  std::vector<ExperimentRow> rows(2);
  rows[0].instance = "A-1";
  rows[0].variant = "v, with comma";
  rows[0].normalized_energy = 0.123456;
  rows[1].instance = "B-2";
  rows[1].variant = "w";
  rows[1].load_balance = 0.5;
  const std::string path = (scratch_dir() / "pals_golden.csv").string();
  save_rows_csv(rows, path);
  const auto restored = load_rows_csv(path);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored[0].variant, "v, with comma");
  EXPECT_NEAR(restored[0].normalized_energy, 0.123456, 1e-6);
  EXPECT_TRUE(compare_rows(rows, restored, 1e-5).empty());
  std::remove(path.c_str());
}

TEST(GoldenCsv, CompareDetectsDrift) {
  std::vector<ExperimentRow> a(1);
  a[0].instance = "X";
  a[0].variant = "v";
  a[0].normalized_energy = 0.5;
  std::vector<ExperimentRow> b = a;
  b[0].normalized_energy = 0.6;
  const auto diffs = compare_rows(a, b, 0.01);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "normalized_energy");
  EXPECT_NE(describe_differences(diffs).find("expected 0.5000"),
            std::string::npos);
}

TEST(GoldenCsv, CompareDetectsMissingAndUnexpectedRows) {
  std::vector<ExperimentRow> a(1);
  a[0].instance = "X";
  a[0].variant = "v";
  std::vector<ExperimentRow> b(1);
  b[0].instance = "Y";
  b[0].variant = "w";
  const auto diffs = compare_rows(a, b, 0.01);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0].field, "missing");
  EXPECT_EQ(diffs[1].field, "unexpected");
}

TEST(GoldenCsv, LoadRejectsBadInput) {
  const std::string path = (scratch_dir() / "pals_bad_golden.csv").string();
  {
    std::ofstream out(path);
    out << "wrong,header\n";
  }
  EXPECT_THROW(load_rows_csv(path), Error);
  std::remove(path.c_str());
  EXPECT_THROW(load_rows_csv("/no/such/file.csv"), Error);
}

}  // namespace
}  // namespace pals
