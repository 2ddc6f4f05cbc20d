// CSV emission and aligned console tables for experiment reports.
//
// Every bench binary prints (a) a human-readable aligned table mirroring the
// paper's figure/table, and (b) machine-readable CSV for plotting.
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace pals {

/// Parse one CSV line into fields, honouring RFC-4180 quoting ("" escapes
/// a quote inside a quoted field). Throws pals::Error on unterminated
/// quotes or garbage after a closing quote.
std::vector<std::string> parse_csv_line(const std::string& line);

/// Streams RFC-4180-ish CSV: fields containing comma/quote/newline are quoted.
class CsvWriter {
public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  CsvWriter& field(const std::string& value);
  CsvWriter& field(double value, int digits = 6);
  CsvWriter& field(long long value);
  CsvWriter& field(std::size_t value);
  /// Terminate the current row.
  void end_row();

  void row(std::initializer_list<std::string> fields);

private:
  std::ostream* out_;
  bool row_started_ = false;
};

/// Collects rows and renders them column-aligned with a header rule,
/// e.g. for the paper's Table 3.
class TextTable {
public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  /// Render with two-space column gaps; numeric-looking cells right-aligned.
  void print(std::ostream& out) const;

  std::size_t rows() const { return rows_.size(); }

private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pals
