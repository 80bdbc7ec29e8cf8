#include "util/csv.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include <gtest/gtest.h>

namespace cdt {
namespace util {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  auto row = ParseCsvLine("a,b,c");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), (CsvRow{"a", "b", "c"}));
}

TEST(ParseCsvLineTest, EmptyFields) {
  auto row = ParseCsvLine(",x,");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), (CsvRow{"", "x", ""}));
}

TEST(ParseCsvLineTest, QuotedFieldWithDelimiter) {
  auto row = ParseCsvLine("\"a,b\",c");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), (CsvRow{"a,b", "c"}));
}

TEST(ParseCsvLineTest, EscapedQuote) {
  auto row = ParseCsvLine("\"he said \"\"hi\"\"\",x");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), (CsvRow{"he said \"hi\"", "x"}));
}

TEST(ParseCsvLineTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsvLine("\"abc").ok());
}

TEST(ParseCsvLineTest, RejectsMidFieldQuote) {
  EXPECT_FALSE(ParseCsvLine("ab\"c\",x").ok());
}

TEST(FormatCsvLineTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b"}), "a,b");
  EXPECT_EQ(FormatCsvLine({"a,b", "c\"d"}), "\"a,b\",\"c\"\"d\"");
}

TEST(FormatCsvLineTest, RoundTripsThroughParse) {
  CsvRow original{"plain", "with,comma", "with\"quote", ""};
  auto parsed = ParseCsvLine(FormatCsvLine(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), original);
}

class CsvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("cdt_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(CsvFileTest, WriteThenReadRoundTrip) {
  CsvTable table;
  table.header = {"id", "name"};
  table.rows = {{"1", "alpha"}, {"2", "beta,comma"}};
  ASSERT_TRUE(WriteCsvFile(path_.string(), table).ok());

  auto loaded = ReadCsvFile(path_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().header, table.header);
  EXPECT_EQ(loaded.value().rows, table.rows);
}

TEST_F(CsvFileTest, RejectsMissingFile) {
  EXPECT_FALSE(ReadCsvFile("/nonexistent/dir/file.csv").ok());
}

TEST_F(CsvFileTest, RejectsRaggedRows) {
  {
    std::ofstream out(path_);
    out << "a,b\n1,2\n3\n";
  }
  EXPECT_FALSE(ReadCsvFile(path_.string()).ok());
}

TEST_F(CsvFileTest, RejectsEmptyFile) {
  { std::ofstream out(path_); }
  auto loaded = ReadCsvFile(path_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("no header"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(CsvFileTest, HeaderOnlyFileYieldsNoRows) {
  {
    std::ofstream out(path_);
    out << "a,b,c\n";
  }
  auto loaded = ReadCsvFile(path_.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().header.size(), 3u);
  EXPECT_TRUE(loaded.value().rows.empty());
}

TEST_F(CsvFileTest, RejectsUnterminatedQuoteWithLineNumber) {
  {
    std::ofstream out(path_);
    out << "a,b\n\"unterminated,2\n";
  }
  auto loaded = ReadCsvFile(path_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace util
}  // namespace cdt
