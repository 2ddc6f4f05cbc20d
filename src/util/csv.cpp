#include "util/csv.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pals {
namespace {

bool needs_quoting(const std::string& s) {
  return s.find_first_of(",\"\n") != std::string::npos;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  bool digit = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit = true;
    } else if (c != '.' && c != '%' && c != 'e' && c != 'E' && c != '-' &&
               c != '+') {
      return false;
    }
  }
  return digit;
}

}  // namespace

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool quoted = false;
  std::size_t i = 0;
  while (i <= line.size()) {
    const bool at_end = i == line.size();
    const char c = at_end ? ',' : line[i];
    if (quoted) {
      PALS_CHECK_MSG(!at_end, "unterminated quote in csv line: " << line);
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      PALS_CHECK_MSG(current.empty(),
                     "quote inside unquoted csv field: " << line);
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
    ++i;
  }
  return fields;
}

CsvWriter& CsvWriter::field(const std::string& value) {
  if (row_started_) *out_ << ',';
  row_started_ = true;
  *out_ << (needs_quoting(value) ? quote(value) : value);
  return *this;
}

CsvWriter& CsvWriter::field(double value, int digits) {
  return field(format_fixed(value, digits));
}

CsvWriter& CsvWriter::field(long long value) {
  return field(std::to_string(value));
}

CsvWriter& CsvWriter::field(std::size_t value) {
  return field(std::to_string(value));
}

void CsvWriter::end_row() {
  *out_ << '\n';
  row_started_ = false;
}

void CsvWriter::row(std::initializer_list<std::string> fields) {
  for (const auto& f : fields) field(f);
  end_row();
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  PALS_CHECK_MSG(!header_.empty(), "TextTable requires at least one column");
}

void TextTable::add_row(std::vector<std::string> row) {
  PALS_CHECK_MSG(row.size() == header_.size(),
                 "row width " << row.size() << " != header width "
                              << header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& out) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = width[c] - row[c].size();
      if (looks_numeric(row[c])) {
        out << std::string(pad, ' ') << row[c];
      } else {
        out << row[c] << std::string(pad, ' ');
      }
      out << (c + 1 == row.size() ? "" : "  ");
    }
    out << '\n';
  };

  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c + 1 == width.size() ? 0 : 2);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

}  // namespace pals
