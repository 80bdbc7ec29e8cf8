// A small CSV reader/writer used by the trace substrate and the benchmark
// reporters. Supports RFC-4180-style quoting for fields containing the
// delimiter, quotes or newlines.

#ifndef CDT_UTIL_CSV_H_
#define CDT_UTIL_CSV_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace util {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// An in-memory CSV table: a header plus data rows.
struct CsvTable {
  CsvRow header;
  std::vector<CsvRow> rows;
};

/// Parses one CSV line (no embedded newlines) into fields.
Result<CsvRow> ParseCsvLine(const std::string& line, char delim = ',');

/// Serialises fields into one CSV line, quoting where needed.
std::string FormatCsvLine(const CsvRow& row, char delim = ',');

/// Reads a whole CSV file; the first line becomes the header.
Result<CsvTable> ReadCsvFile(const std::string& path, char delim = ',');

/// Writes a CSV table to `path`, header first.
Status WriteCsvFile(const std::string& path, const CsvTable& table,
                    char delim = ',');

}  // namespace util
}  // namespace cdt

#endif  // CDT_UTIL_CSV_H_
