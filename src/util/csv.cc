#include "util/csv.h"

#include <fstream>
#include <sstream>

namespace cdt {
namespace util {

Result<CsvRow> ParseCsvLine(const std::string& line, char delim) {
  CsvRow fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else {
      if (c == '"') {
        if (!current.empty()) {
          return Status::ParseError("quote in the middle of unquoted field");
        }
        in_quotes = true;
      } else if (c == delim) {
        fields.push_back(std::move(current));
        current.clear();
      } else {
        current.push_back(c);
      }
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted field");
  }
  fields.push_back(std::move(current));
  return fields;
}

std::string FormatCsvLine(const CsvRow& row, char delim) {
  std::string out;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.push_back(delim);
    const std::string& field = row[i];
    bool needs_quotes =
        field.find(delim) != std::string::npos ||
        field.find('"') != std::string::npos ||
        field.find('\n') != std::string::npos;
    if (needs_quotes) {
      out.push_back('"');
      for (char c : field) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
      }
      out.push_back('"');
    } else {
      out += field;
    }
  }
  return out;
}

Result<CsvTable> ReadCsvFile(const std::string& path, char delim) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open CSV file: " + path);
  }
  CsvTable table;
  std::string line;
  bool first = true;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() && !first) continue;
    Result<CsvRow> row = ParseCsvLine(line, delim);
    if (!row.ok()) {
      return Status::ParseError("line " + std::to_string(lineno) + ": " +
                                row.status().message());
    }
    if (first) {
      table.header = std::move(row).value();
      first = false;
    } else {
      if (row.value().size() != table.header.size()) {
        return Status::ParseError(
            "line " + std::to_string(lineno) + ": expected " +
            std::to_string(table.header.size()) + " fields, got " +
            std::to_string(row.value().size()));
      }
      table.rows.push_back(std::move(row).value());
    }
  }
  if (first) {
    return Status::ParseError("CSV file has no header: " + path);
  }
  return table;
}

Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char delim) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open CSV file for writing: " + path);
  }
  out << FormatCsvLine(table.header, delim) << '\n';
  for (const CsvRow& row : table.rows) {
    out << FormatCsvLine(row, delim) << '\n';
  }
  if (!out.good()) {
    return Status::IoError("error while writing CSV file: " + path);
  }
  return Status::OK();
}

}  // namespace util
}  // namespace cdt
