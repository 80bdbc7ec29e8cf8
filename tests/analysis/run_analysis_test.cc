#include "analysis/run_analysis.h"

#include <gtest/gtest.h>

#include "core/cmab_hs.h"

namespace cdt {
namespace analysis {
namespace {

market::RoundReport MakeRow(std::int64_t round, std::vector<int> selected,
                            double poc = 10.0, double revenue = 5.0) {
  market::RoundReport row;
  row.round = round;
  row.initial_exploration = round == 1;
  row.selected = std::move(selected);
  row.consumer_price = 2.0;
  row.collection_price = 1.0;
  row.total_time = 4.0;
  row.consumer_profit = poc;
  row.platform_profit = 3.0;
  row.seller_profit_total = 1.5;
  row.expected_quality_revenue = revenue;
  row.observed_quality_revenue = revenue - 0.1;
  return row;
}

TEST(SummarizeTest, ErrorsOnEmpty) {
  EXPECT_FALSE(Summarize({}).ok());
}

TEST(SummarizeTest, AggregatesCorrectly) {
  std::vector<market::RoundReport> rows{MakeRow(1, {0, 1}, 10.0, 5.0),
                                        MakeRow(2, {0, 1}, 20.0, 6.0)};
  auto stats = Summarize(rows);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rounds, 2);
  EXPECT_DOUBLE_EQ(stats.value().total_consumer_profit, 30.0);
  EXPECT_DOUBLE_EQ(stats.value().total_expected_revenue, 11.0);
  EXPECT_NEAR(stats.value().total_observed_revenue, 10.8, 1e-12);
  EXPECT_DOUBLE_EQ(stats.value().mean_consumer_price, 2.0);
  EXPECT_EQ(stats.value().exploration_rounds, 1);
}

TEST(CumulativeRegretCurveTest, PrefixSums) {
  std::vector<market::RoundReport> rows{MakeRow(1, {0}, 0, 4.0),
                                        MakeRow(2, {0}, 0, 5.0),
                                        MakeRow(3, {0}, 0, 5.0)};
  auto curve = CumulativeRegretCurve(rows, 5.0);
  ASSERT_TRUE(curve.ok());
  EXPECT_DOUBLE_EQ(curve.value()[0], 1.0);
  EXPECT_DOUBLE_EQ(curve.value()[1], 1.0);
  EXPECT_DOUBLE_EQ(curve.value()[2], 1.0);
  EXPECT_FALSE(CumulativeRegretCurve(rows, 0.0).ok());
}

TEST(ConvergenceTest, DetectsFinalStableStreak) {
  std::vector<market::RoundReport> rows{
      MakeRow(1, {0, 1, 2}), MakeRow(2, {1, 3}), MakeRow(3, {3, 1}),
      MakeRow(4, {1, 3}),    MakeRow(5, {1, 3})};
  // Rounds 2-5 share the set {1,3} (order ignored) -> converged at 2.
  auto converged = DetectSelectionConvergence(rows, 3);
  ASSERT_TRUE(converged.ok());
  EXPECT_EQ(converged.value(), 2);
}

TEST(ConvergenceTest, ZeroWhenUnstable) {
  std::vector<market::RoundReport> rows{MakeRow(1, {0}), MakeRow(2, {1}),
                                        MakeRow(3, {0})};
  auto converged = DetectSelectionConvergence(rows, 2);
  ASSERT_TRUE(converged.ok());
  EXPECT_EQ(converged.value(), 0);
}

TEST(ConvergenceTest, Validation) {
  EXPECT_FALSE(DetectSelectionConvergence({MakeRow(1, {0})}, 0).ok());
}

TEST(AnalysisIntegrationTest, EndToEndOverRealRunLog) {
  core::MechanismConfig config;
  config.num_sellers = 8;
  config.num_selected = 2;
  config.num_pois = 3;
  config.num_rounds = 200;
  config.seed = 15;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  std::vector<market::RoundReport> rows;
  ASSERT_TRUE(run.value()
                  ->RunAll([&](const market::RoundReport& report) {
                    rows.push_back(report);
                  })
                  .ok());
  auto stats = Summarize(rows);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rounds, 200);
  EXPECT_EQ(stats.value().exploration_rounds, 1);
  EXPECT_NEAR(stats.value().total_expected_revenue,
              run.value()->metrics().expected_revenue(), 1e-6);

  // Regret from the log matches the in-memory tracker.
  double optimal_round =
      run.value()->environment().OptimalSetQuality(2) * 3;
  auto curve = CumulativeRegretCurve(rows, optimal_round);
  ASSERT_TRUE(curve.ok());
  EXPECT_NEAR(curve.value().back(), run.value()->metrics().regret(), 1e-6);

  // The selection eventually stabilises on this easy instance.
  auto converged = DetectSelectionConvergence(rows, 20);
  ASSERT_TRUE(converged.ok());
}

}  // namespace
}  // namespace analysis
}  // namespace cdt
