// Tests for the consumer-budget extension (EngineConfig::consumer_budget):
// clean early stop, no partial payments, spend accounting, and the
// interaction with the CmabHs facade.

#include <gtest/gtest.h>

#include "bandit/cucb_policy.h"
#include "core/cmab_hs.h"
#include "market/trading_engine.h"
#include "stats/rng.h"
#include "support/run_engine.h"

namespace cdt {
namespace market {
namespace {

constexpr int kSellers = 8;
constexpr int kSelected = 2;
constexpr int kPois = 3;

EngineConfig MakeConfig(double budget) {
  EngineConfig config;
  config.job.num_pois = kPois;
  config.job.num_rounds = 100;
  config.job.round_duration = 1000.0;
  config.num_selected = kSelected;
  stats::Xoshiro256 rng(2);
  for (int i = 0; i < kSellers; ++i) {
    config.seller_costs.push_back(
        {rng.NextDouble(0.1, 0.5), rng.NextDouble(0.1, 1.0)});
  }
  config.platform_cost = {0.1, 1.0};
  config.valuation = {1000.0};
  config.consumer_price_bounds = {0.01, 100.0};
  config.collection_price_bounds = {0.01, 5.0};
  config.consumer_budget = budget;
  return config;
}

std::unique_ptr<TradingEngine> MakeEngine(bandit::QualityEnvironment* env,
                                          double budget) {
  bandit::CucbOptions options;
  options.num_sellers = kSellers;
  options.num_selected = kSelected;
  auto policy = bandit::CucbPolicy::Create(options);
  EXPECT_TRUE(policy.ok());
  auto engine = TradingEngine::Create(
      MakeConfig(budget), env,
      std::make_unique<bandit::CucbPolicy>(std::move(policy).value()));
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

bandit::QualityEnvironment MakeEnv() {
  bandit::EnvironmentConfig config;
  config.num_sellers = kSellers;
  config.num_pois = kPois;
  config.seed = 4;
  auto env = bandit::QualityEnvironment::Create(config);
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

TEST(BudgetTest, NegativeBudgetRejected) {
  auto env = MakeEnv();
  bandit::CucbOptions options;
  options.num_sellers = kSellers;
  options.num_selected = kSelected;
  auto policy = bandit::CucbPolicy::Create(options);
  ASSERT_TRUE(policy.ok());
  auto engine = TradingEngine::Create(
      MakeConfig(-1.0), &env,
      std::make_unique<bandit::CucbPolicy>(std::move(policy).value()));
  EXPECT_FALSE(engine.ok());
}

TEST(BudgetTest, ZeroBudgetMeansUnlimited) {
  auto env = MakeEnv();
  auto engine = MakeEngine(&env, 0.0);
  ASSERT_TRUE(testsupport::RunEngineToEnd(engine.get()).ok());
  EXPECT_EQ(engine->current_round(), 100);
  EXPECT_FALSE(engine->budget_exhausted());
  EXPECT_GT(engine->ledger().ConsumerOutflow(), 0.0);
}

TEST(BudgetTest, StopsWhenBudgetRunsOut) {
  // First find the unconstrained spend, then re-run with half the budget.
  auto env_probe = MakeEnv();
  auto probe = MakeEngine(&env_probe, 0.0);
  ASSERT_TRUE(testsupport::RunEngineToEnd(probe.get()).ok());
  double full_spend = probe->ledger().ConsumerOutflow();

  auto env = MakeEnv();
  auto engine = MakeEngine(&env, full_spend / 2.0);
  // A clean stop, not an error.
  ASSERT_TRUE(testsupport::RunEngineToEnd(engine.get()).ok());
  EXPECT_TRUE(engine->budget_exhausted());
  EXPECT_LT(engine->current_round(), 100);
  EXPECT_GT(engine->current_round(), 0);
  // Never overspends.
  EXPECT_LE(engine->ledger().ConsumerOutflow(),
            full_spend / 2.0 + 1e-9);
}

TEST(BudgetTest, AbandonedRoundLeavesNoTrace) {
  auto env = MakeEnv();
  // Budget below even the initial-exploration reward: round 1 aborts with
  // zero spend and zero executed rounds.
  auto engine = MakeEngine(&env, 1e-6);
  auto report = engine->RunRound();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(engine->budget_exhausted());
  EXPECT_EQ(engine->current_round(), 0);
  EXPECT_DOUBLE_EQ(engine->ledger().ConsumerOutflow(), 0.0);
  EXPECT_NEAR(engine->ledger().NetPosition(), 0.0, 1e-12);
}

TEST(BudgetTest, FacadeStopsCleanly) {
  core::MechanismConfig config;
  config.num_sellers = 10;
  config.num_selected = 2;
  config.num_pois = 3;
  config.num_rounds = 200;
  config.consumer_budget = 5000.0;
  config.seed = 9;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run.value()->RunAll().ok());
  EXPECT_TRUE(run.value()->engine().budget_exhausted());
  EXPECT_LT(run.value()->metrics().rounds(), 200);
  EXPECT_LE(run.value()->engine().ledger().ConsumerOutflow(), 5000.0);
}

TEST(BudgetTest, LargerBudgetBuysMoreRounds) {
  auto env_a = MakeEnv();
  auto env_b = MakeEnv();
  auto small = MakeEngine(&env_a, 2000.0);
  auto large = MakeEngine(&env_b, 8000.0);
  ASSERT_TRUE(testsupport::RunEngineToEnd(small.get()).ok());
  ASSERT_TRUE(testsupport::RunEngineToEnd(large.get()).ok());
  EXPECT_LE(small->current_round(), large->current_round());
}

}  // namespace
}  // namespace market
}  // namespace cdt
