#include "util/string_util.h"

#include <gtest/gtest.h>

namespace cdt {
namespace util {
namespace {

TEST(JoinTest, DelimitsEveryPartIncludingEmptyOnes) {
  EXPECT_EQ(Join({"x", "y", "", "z"}, ';'), "x;y;;z");
  EXPECT_EQ(Join({"x"}, ';'), "x");
  EXPECT_EQ(Join({}, ';'), "");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(PrefixSuffixTest, StartsAndEndsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(ToLowerTest, LowersAscii) {
  EXPECT_EQ(ToLower("MiXeD123"), "mixed123");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3").value(), -1e-3);
  EXPECT_DOUBLE_EQ(ParseDouble("  7 ").value(), 7.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("nan").ok());
}

TEST(ParseIntTest, ParsesValidIntegers) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt(" 100 ").value(), 100);
}

TEST(ParseIntTest, RejectsGarbageAndOverflow) {
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12.5").ok());
  EXPECT_FALSE(ParseInt("99999999999999999999999").ok());
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

}  // namespace
}  // namespace util
}  // namespace cdt
