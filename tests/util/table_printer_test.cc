#include "util/table_printer.h"

#include <sstream>

#include <gtest/gtest.h>

namespace cdt {
namespace util {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"N", "revenue"});
  tp.AddRow({"5000", "1.5"});
  tp.AddRow({"100000", "123456.75"});
  std::ostringstream os;
  tp.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("N"), std::string::npos);
  EXPECT_NE(out.find("100000"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(tp.num_rows(), 2u);
}

TEST(TablePrinterDeathTest, RejectsWidthMismatch) {
  TablePrinter tp({"one", "two"});
  EXPECT_DEATH(tp.AddRow({"only-one"}), "row width");
}

}  // namespace
}  // namespace util
}  // namespace cdt
