#include "util/math_util.h"

#include <cmath>

#include <gtest/gtest.h>

namespace cdt {
namespace util {
namespace {

TEST(IntervalTest, ContainsAndClamp) {
  Interval box{1.0, 5.0};
  EXPECT_TRUE(box.valid());
  EXPECT_TRUE(box.Contains(1.0));
  EXPECT_TRUE(box.Contains(5.0));
  EXPECT_FALSE(box.Contains(0.999));
  EXPECT_DOUBLE_EQ(box.Clamp(0.0), 1.0);
  EXPECT_DOUBLE_EQ(box.Clamp(9.0), 5.0);
  EXPECT_DOUBLE_EQ(box.Clamp(3.0), 3.0);
  EXPECT_DOUBLE_EQ(box.width(), 4.0);
}

TEST(IntervalTest, InvalidWhenReversed) {
  Interval box{2.0, 1.0};
  EXPECT_FALSE(box.valid());
}

TEST(LinspaceTest, EvenSpacingWithExactEndpoints) {
  auto grid = Linspace(0.0, 1.0, 5);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid.value().size(), 5u);
  EXPECT_DOUBLE_EQ(grid.value().front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.value().back(), 1.0);
  EXPECT_DOUBLE_EQ(grid.value()[2], 0.5);
}

TEST(LinspaceTest, RejectsTooFewPoints) {
  EXPECT_FALSE(Linspace(0.0, 1.0, 1).ok());
}

TEST(GoldenSectionMaxTest, FindsParabolaPeak) {
  auto [x, v] = GoldenSectionMax(
      [](double t) { return -(t - 2.5) * (t - 2.5) + 7.0; }, 0.0, 10.0);
  EXPECT_NEAR(x, 2.5, 1e-7);
  EXPECT_NEAR(v, 7.0, 1e-12);
}

TEST(GoldenSectionMaxTest, HandlesEndpointMaximum) {
  auto [x, v] = GoldenSectionMax([](double t) { return t; }, 0.0, 4.0);
  EXPECT_NEAR(x, 4.0, 1e-6);
  EXPECT_NEAR(v, 4.0, 1e-6);
}

}  // namespace
}  // namespace util
}  // namespace cdt
