#include "stats/confidence.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace cdt {
namespace stats {
namespace {

TEST(UcbRadiusTest, InfiniteForUnexploredArm) {
  EXPECT_TRUE(std::isinf(UcbRadius(0, 100, 2.0)));
}

TEST(UcbRadiusTest, MatchesPaperFormula) {
  // eps = sqrt((K+1) ln(total) / n) with K+1 = 11, total = 3000, n = 10.
  double expected = std::sqrt(11.0 * std::log(3000.0) / 10.0);
  EXPECT_NEAR(UcbRadius(10, 3000, 11.0), expected, 1e-12);
}

TEST(UcbRadiusTest, ShrinksWithMoreObservations) {
  double wide = UcbRadius(10, 1000, 2.0);
  double narrow = UcbRadius(1000, 1000, 2.0);
  EXPECT_GT(wide, narrow);
}

TEST(UcbRadiusTest, GrowsWithTotalObservations) {
  EXPECT_LT(UcbRadius(10, 100, 2.0), UcbRadius(10, 100000, 2.0));
}

TEST(UcbRadiusTest, GuardsTinyTotals) {
  // ln(1) = 0 would kill exploration entirely; the implementation floors
  // the log argument at 2.
  EXPECT_GT(UcbRadius(1, 1, 2.0), 0.0);
}

}  // namespace
}  // namespace stats
}  // namespace cdt
