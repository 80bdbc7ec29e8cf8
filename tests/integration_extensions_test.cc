// Integration tests for the extension features working *together*:
// budgeted campaigns streamed to run logs and analysed offline, and
// delayed feedback inside the full trading engine.

#include <filesystem>
#include <unistd.h>

#include <gtest/gtest.h>

#include "analysis/run_analysis.h"
#include "bandit/cucb_policy.h"
#include "bandit/delayed_feedback.h"
#include "core/cmab_hs.h"
#include "market/run_log.h"
#include "market/trading_engine.h"
#include "stats/rng.h"

namespace cdt {
namespace {

TEST(ExtensionsIntegrationTest, BudgetedCampaignRoundTripsThroughRunLog) {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("cdt_ext_" + std::to_string(::getpid()) + ".csv");

  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 3;
  config.num_rounds = 300;
  config.consumer_budget = 20000.0;
  config.seed = 25;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  auto writer = market::RunLogWriter::Open(path.string());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(run.value()
                  ->RunAll([&](const market::RoundReport& report) {
                    ASSERT_TRUE(writer.value().Append(report).ok());
                  })
                  .ok());
  ASSERT_TRUE(writer.value().Close().ok());

  // The campaign stopped early on budget; the log must agree exactly with
  // the engine on executed rounds and spend.
  ASSERT_TRUE(run.value()->engine().budget_exhausted());
  auto rows = market::LoadRunLog(path.string());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(static_cast<std::int64_t>(rows.value().size()),
            run.value()->engine().current_round());
  double spend = 0.0;
  for (const market::RunLogRow& row : rows.value()) {
    spend += row.consumer_price * row.total_time;
  }
  EXPECT_NEAR(spend, run.value()->engine().consumer_spend(), 1e-6);
  EXPECT_LE(spend, config.consumer_budget + 1e-6);

  auto stats = analysis::Summarize(rows.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().rounds,
            run.value()->engine().current_round());
  std::filesystem::remove(path);
}

TEST(ExtensionsIntegrationTest, DelayedFeedbackInsideFullEngine) {
  // The trading engine runs unmodified with a delay-wrapped policy: the
  // wrapped estimator lags, the engine's own pricing estimates do not.
  bandit::EnvironmentConfig env_config;
  env_config.num_sellers = 10;
  env_config.num_pois = 3;
  env_config.seed = 6;
  auto env = bandit::QualityEnvironment::Create(env_config);
  ASSERT_TRUE(env.ok());

  bandit::CucbOptions options;
  options.num_sellers = 10;
  options.num_selected = 3;
  auto inner = bandit::CucbPolicy::Create(options);
  ASSERT_TRUE(inner.ok());
  auto delayed = bandit::DelayedFeedbackPolicy::Create(
      std::make_unique<bandit::CucbPolicy>(std::move(inner).value()), 4);
  ASSERT_TRUE(delayed.ok());

  market::EngineConfig engine_config;
  engine_config.job.num_pois = 3;
  engine_config.job.num_rounds = 30;
  engine_config.job.round_duration = 1000.0;
  engine_config.num_selected = 3;
  stats::Xoshiro256 rng(4);
  for (int i = 0; i < 10; ++i) {
    engine_config.seller_costs.push_back(
        {rng.NextDouble(0.1, 0.5), rng.NextDouble(0.1, 1.0)});
  }
  engine_config.platform_cost = {0.1, 1.0};
  engine_config.valuation = {1000.0};
  engine_config.consumer_price_bounds = {0.01, 100.0};
  engine_config.collection_price_bounds = {0.01, 5.0};

  auto engine = market::TradingEngine::Create(
      engine_config, &env.value(),
      std::make_unique<bandit::DelayedFeedbackPolicy>(
          std::move(delayed).value()));
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->RunAll().ok());
  EXPECT_EQ(engine.value()->current_round(), 30);

  // Policy estimator saw 30 − 4 rounds of feedback; the engine's pricing
  // bank saw all 30. Round 1 observed all 10 sellers, later rounds 3.
  const auto* lagged = engine.value()->policy().estimator();
  ASSERT_NE(lagged, nullptr);
  std::uint64_t expected_prompt = (10u + 29u * 3u) * 3u;
  std::uint64_t expected_lagged = (10u + 25u * 3u) * 3u;
  EXPECT_EQ(engine.value()->pricing_estimates().total_observations(),
            expected_prompt);
  EXPECT_EQ(lagged->total_observations(), expected_lagged);
  EXPECT_NEAR(engine.value()->ledger().NetPosition(), 0.0, 1e-6);
}

}  // namespace
}  // namespace cdt
