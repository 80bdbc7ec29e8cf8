#include "bandit/regret.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace cdt {
namespace bandit {
namespace {

TEST(ComputeGapsTest, MatchesEq35And36) {
  // Sorted descending: 0.9, 0.7, 0.5, 0.2; K = 2.
  auto gaps = ComputeGaps({0.5, 0.9, 0.2, 0.7}, 2);
  ASSERT_TRUE(gaps.ok());
  EXPECT_NEAR(gaps.value().delta_min, 0.7 - 0.5, 1e-12);
  EXPECT_NEAR(gaps.value().delta_max, (0.9 + 0.7) - (0.2 + 0.5), 1e-12);
}

TEST(ComputeGapsTest, TiedBoundaryGivesZeroDeltaMin) {
  auto gaps = ComputeGaps({0.5, 0.5, 0.1}, 1);
  ASSERT_TRUE(gaps.ok());
  EXPECT_DOUBLE_EQ(gaps.value().delta_min, 0.0);
}

TEST(ComputeGapsTest, RejectsDegenerateK) {
  EXPECT_FALSE(ComputeGaps({0.5, 0.6}, 0).ok());
  EXPECT_FALSE(ComputeGaps({0.5, 0.6}, 2).ok());  // K == M
}

TEST(RegretTrackerTest, OptimalSelectionHasZeroRegret) {
  auto tracker = RegretTracker::Create({0.9, 0.5, 0.1}, 2, 4);
  ASSERT_TRUE(tracker.ok());
  for (int t = 0; t < 10; ++t) {
    ASSERT_TRUE(tracker.value().RecordRound({0, 1}).ok());
  }
  EXPECT_NEAR(tracker.value().regret(), 0.0, 1e-9);
  EXPECT_NEAR(tracker.value().cumulative_expected_revenue(),
              10 * 4 * (0.9 + 0.5), 1e-9);
}

TEST(RegretTrackerTest, SuboptimalSelectionAccumulatesGap) {
  auto tracker = RegretTracker::Create({0.9, 0.5, 0.1}, 2, 4);
  ASSERT_TRUE(tracker.ok());
  ASSERT_TRUE(tracker.value().RecordRound({1, 2}).ok());  // misses seller 0
  double per_round_gap = 4 * ((0.9 + 0.5) - (0.5 + 0.1));
  EXPECT_NEAR(tracker.value().regret(), per_round_gap, 1e-9);
}

TEST(RegretTrackerTest, RejectsBadInput) {
  auto tracker = RegretTracker::Create({0.9, 0.5}, 1, 2);
  ASSERT_TRUE(tracker.ok());
  EXPECT_FALSE(tracker.value().RecordRound({5}).ok());
  EXPECT_FALSE(RegretTracker::Create({}, 1, 2).ok());
  EXPECT_FALSE(RegretTracker::Create({0.5}, 2, 2).ok());
  EXPECT_FALSE(RegretTracker::Create({0.5}, 1, 0).ok());
}

TEST(Lemma18BoundTest, GrowsLogarithmicallyInN) {
  double b1 = Lemma18CounterBound(10, 1000, 10, 0.1);
  double b2 = Lemma18CounterBound(10, 100000, 10, 0.1);
  // ln ratio: bound difference should equal 4K^2(K+1)/Δ² · ln(100).
  double expected_growth =
      4.0 * 100.0 * 11.0 / 0.01 * std::log(100.0);
  EXPECT_NEAR(b2 - b1, expected_growth, 1.0);
}

TEST(Lemma18BoundTest, InfiniteWhenGapZero) {
  EXPECT_TRUE(std::isinf(Lemma18CounterBound(10, 1000, 10, 0.0)));
}

TEST(Lemma18BoundTest, NoOverflowForLargeK) {
  // K = 60 would overflow K^{2K+1} in plain doubles; log-space keeps the
  // tail finite (≈ 0).
  double bound = Lemma18CounterBound(60, 200000, 10, 0.01);
  EXPECT_TRUE(std::isfinite(bound));
  EXPECT_GT(bound, 0.0);
}

TEST(Theorem19BoundTest, ScalesWithM) {
  GapStatistics gaps{0.1, 2.0};
  double b300 = Theorem19RegretBound(300, 10, 100000, 10, gaps);
  double b150 = Theorem19RegretBound(150, 10, 100000, 10, gaps);
  EXPECT_NEAR(b300 / b150, 2.0, 1e-9);
}

TEST(Theorem19BoundTest, InfiniteOnTies) {
  GapStatistics gaps{0.0, 2.0};
  EXPECT_TRUE(std::isinf(Theorem19RegretBound(300, 10, 1000, 10, gaps)));
}

}  // namespace
}  // namespace bandit
}  // namespace cdt
