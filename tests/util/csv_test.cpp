#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace pals {
namespace {

TEST(CsvWriter, PlainFields) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.field(std::string("a")).field(1.5, 2).field(static_cast<long long>(-3));
  csv.end_row();
  EXPECT_EQ(os.str(), "a,1.50,-3\n");
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.field(std::string("has,comma")).field(std::string("has\"quote"));
  csv.end_row();
  EXPECT_EQ(os.str(), "\"has,comma\",\"has\"\"quote\"\n");
}

TEST(CsvWriter, RowHelper) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"x", "y"});
  csv.row({"1", "2"});
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(ParseCsvLine, PlainFields) {
  const auto fields = parse_csv_line("a,1.5,-3");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "-3");
}

TEST(ParseCsvLine, QuotedFieldsWithCommasAndQuotes) {
  const auto fields = parse_csv_line("\"has,comma\",\"has\"\"quote\",plain");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "has,comma");
  EXPECT_EQ(fields[1], "has\"quote");
  EXPECT_EQ(fields[2], "plain");
}

TEST(ParseCsvLine, EmptyFieldsSurvive) {
  const auto fields = parse_csv_line("a,,b,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(ParseCsvLine, RoundTripsWriterOutput) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"x,y", "pla\"in", "z"});
  std::string line = os.str();
  line.pop_back();  // strip the newline
  const auto fields = parse_csv_line(line);
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "x,y");
  EXPECT_EQ(fields[1], "pla\"in");
}

TEST(ParseCsvLine, RejectsMalformedQuoting) {
  EXPECT_THROW(parse_csv_line("\"unterminated"), Error);
  EXPECT_THROW(parse_csv_line("ab\"cd"), Error);
}

TEST(TextTable, AlignsColumnsAndRightAlignsNumbers) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1.5"});
  table.add_row({"b", "100.25"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  // Header, rule, two rows.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numeric column is right-aligned: "1.5" gets left padding.
  EXPECT_NE(out.find("   1.5"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), Error);
}

TEST(TextTable, CountsRows) {
  TextTable table({"a"});
  EXPECT_EQ(table.rows(), 0u);
  table.add_row({"x"});
  table.add_row({"y"});
  EXPECT_EQ(table.rows(), 2u);
}

TEST(TextTable, PercentCellsAreNumeric) {
  TextTable table({"v"});
  table.add_row({"35.21%"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("35.21%"), std::string::npos);
}

}  // namespace
}  // namespace pals
