#include "stats/summary.h"

#include <gtest/gtest.h>

namespace cdt {
namespace stats {
namespace {

TEST(RunningSummaryTest, EmptyIsZero) {
  RunningSummary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningSummaryTest, MatchesDirectComputation) {
  RunningSummary s;
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) s.Add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.sum(), 20.0);
  // Population variance: mean of squared deviations = (9+4+1+0+36)/5 = 10.
  EXPECT_DOUBLE_EQ(s.variance(), 10.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 12.5);
}

TEST(RunningSummaryTest, SingleValue) {
  RunningSummary s;
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 0.0);
}

TEST(RunningSummaryTest, NumericallyStableForLargeOffsets) {
  RunningSummary s;
  for (int i = 0; i < 1000; ++i) s.Add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25, 1e-6);
}

}  // namespace
}  // namespace stats
}  // namespace cdt
