// Console table printer used by the figure harnesses to emit the paper's
// rows/series in an aligned, human-readable format (and optionally CSV).

#ifndef CDT_UTIL_TABLE_PRINTER_H_
#define CDT_UTIL_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace cdt {
namespace util {

/// Collects rows of string cells and prints them with aligned columns.
///
///   TablePrinter tp({"N", "revenue", "regret"});
///   tp.AddRow({"5000", "49873.1", "121.5"});
///   tp.Print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends one row; the cell count must match the header width.
  void AddRow(std::vector<std::string> cells);

  std::size_t num_rows() const { return rows_.size(); }

  /// Prints an aligned, padded table with a separator under the header.
  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace util
}  // namespace cdt

#endif  // CDT_UTIL_TABLE_PRINTER_H_
