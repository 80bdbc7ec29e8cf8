#include "market/trading_engine.h"

#include <memory>

#include <gtest/gtest.h>

#include "bandit/baseline_policies.h"
#include "bandit/cucb_policy.h"
#include "bandit/delayed_feedback.h"
#include "stats/rng.h"

namespace cdt {
namespace market {
namespace {

constexpr int kSellers = 12;
constexpr int kSelected = 3;
constexpr int kPois = 4;

EngineConfig MakeConfig(std::int64_t rounds = 20) {
  EngineConfig config;
  config.job.num_pois = kPois;
  config.job.num_rounds = rounds;
  config.job.round_duration = 1000.0;
  config.job.description = "test job";
  config.num_selected = kSelected;
  stats::Xoshiro256 rng(5);
  for (int i = 0; i < kSellers; ++i) {
    config.seller_costs.push_back(
        {rng.NextDouble(0.1, 0.5), rng.NextDouble(0.1, 1.0)});
  }
  config.platform_cost = {0.1, 1.0};
  config.valuation = {1000.0};
  config.consumer_price_bounds = {0.01, 100.0};
  config.collection_price_bounds = {0.01, 5.0};
  config.track_transfers = true;
  return config;
}

bandit::QualityEnvironment MakeEnvironment(std::uint64_t seed = 3) {
  bandit::EnvironmentConfig env_config;
  env_config.num_sellers = kSellers;
  env_config.num_pois = kPois;
  env_config.seed = seed;
  auto env = bandit::QualityEnvironment::Create(env_config);
  EXPECT_TRUE(env.ok());
  return std::move(env).value();
}

std::unique_ptr<bandit::SelectionPolicy> MakeCucb() {
  bandit::CucbOptions options;
  options.num_sellers = kSellers;
  options.num_selected = kSelected;
  auto policy = bandit::CucbPolicy::Create(options);
  EXPECT_TRUE(policy.ok());
  return std::make_unique<bandit::CucbPolicy>(std::move(policy).value());
}

TEST(TradingEngineTest, CreateValidation) {
  auto env = MakeEnvironment();
  EXPECT_FALSE(
      TradingEngine::Create(MakeConfig(), nullptr, MakeCucb()).ok());
  EXPECT_FALSE(TradingEngine::Create(MakeConfig(), &env, nullptr).ok());

  EngineConfig bad = MakeConfig();
  bad.num_selected = kSellers + 1;
  EXPECT_FALSE(TradingEngine::Create(bad, &env, MakeCucb()).ok());

  bad = MakeConfig();
  bad.seller_costs.pop_back();
  EXPECT_FALSE(TradingEngine::Create(bad, &env, MakeCucb()).ok());

  bad = MakeConfig();
  bad.job.num_pois = kPois + 1;  // disagrees with environment
  EXPECT_FALSE(TradingEngine::Create(bad, &env, MakeCucb()).ok());

  bad = MakeConfig();
  bad.initial_tau = 0.0;
  EXPECT_FALSE(TradingEngine::Create(bad, &env, MakeCucb()).ok());
}

TEST(TradingEngineTest, ValidateRejectionsCarryDescriptiveMessages) {
  EngineConfig config = MakeConfig();
  config.num_selected = kSellers + 1;  // K > M
  util::Status status = config.Validate(kSellers);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("K <= M"), std::string::npos)
      << status.ToString();

  config = MakeConfig();
  config.seller_costs.pop_back();  // mismatched cost vector size
  status = config.Validate(kSellers);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("one cost parameter set per seller"),
            std::string::npos)
      << status.ToString();

  config = MakeConfig();
  config.quality_floor = 0.0;  // non-positive floor
  status = config.Validate(kSellers);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("quality_floor"), std::string::npos)
      << status.ToString();

  config = MakeConfig();
  config.consumer_price_bounds = {10.0, 1.0};  // inverted interval
  status = config.Validate(kSellers);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("price bounds"), std::string::npos)
      << status.ToString();

  config = MakeConfig();
  config.collection_price_bounds = {5.0, 0.01};  // inverted interval
  EXPECT_FALSE(config.Validate(kSellers).ok());
}

TEST(TradingEngineTest, FirstRoundIsInitialExploration) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  auto report = engine.value()->RunRound();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().initial_exploration);
  EXPECT_EQ(report.value().selected.size(), kSellers);
  // Algorithm 1: p^1 = p_max; every seller senses τ^0.
  EXPECT_DOUBLE_EQ(report.value().collection_price, 5.0);
  for (double tau : report.value().tau) EXPECT_DOUBLE_EQ(tau, 1.0);
  // Consumer price set to the platform's break-even point.
  EXPECT_NEAR(report.value().platform_profit, 0.0, 1e-9);
}

TEST(TradingEngineTest, SubsequentRoundsSelectKAndPlayGame) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->RunRound().ok());
  auto report = engine.value()->RunRound();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().initial_exploration);
  EXPECT_EQ(report.value().selected.size(), kSelected);
  EXPECT_GT(report.value().consumer_price, report.value().collection_price);
  EXPECT_GT(report.value().total_time, 0.0);
  EXPECT_GT(report.value().consumer_profit, 0.0);
  EXPECT_GT(report.value().platform_profit, 0.0);
}

TEST(TradingEngineTest, LedgerConservesMoneyAcrossRun) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(30), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->RunAll().ok());
  const Ledger& ledger = engine.value()->ledger();
  EXPECT_NEAR(ledger.NetPosition(), 0.0, 1e-6);
  EXPECT_GT(ledger.ConsumerOutflow(), 0.0);
  EXPECT_GT(ledger.SellerInflow(), 0.0);
  // The platform's ledger balance equals rewards minus payouts: for every
  // round that is (p^J − p)·Στ, i.e. platform profit before aggregation
  // cost — so it must be at least total platform profit.
  EXPECT_GE(ledger.Balance(kPlatformAccount).value(), 0.0);
}

TEST(TradingEngineTest, PaymentsMatchReports) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(5), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  double expected_outflow = 0.0;
  double expected_seller_inflow = 0.0;
  ASSERT_TRUE(engine.value()
                  ->RunAll([&](const RoundReport& report) {
                    expected_outflow +=
                        report.consumer_price * report.total_time;
                    for (double tau : report.tau) {
                      expected_seller_inflow +=
                          report.collection_price * tau;
                    }
                  })
                  .ok());
  EXPECT_NEAR(engine.value()->ledger().ConsumerOutflow(), expected_outflow,
              1e-6);
  EXPECT_NEAR(engine.value()->ledger().SellerInflow(),
              expected_seller_inflow, 1e-6);
}

TEST(TradingEngineTest, StopsAfterConfiguredRounds) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(3), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->RunAll().ok());
  EXPECT_EQ(engine.value()->current_round(), 3);
  EXPECT_FALSE(engine.value()->RunRound().ok());
}

TEST(TradingEngineTest, OracleModeUsesTrueQualities) {
  auto env = MakeEnvironment();
  EngineConfig config = MakeConfig(5);
  config.use_true_qualities_for_game = true;
  auto oracle_policy = bandit::OraclePolicy::Create(
      env.effective_qualities(), kSelected);
  ASSERT_TRUE(oracle_policy.ok());
  auto engine = TradingEngine::Create(
      config, &env,
      std::make_unique<bandit::OraclePolicy>(std::move(oracle_policy).value()));
  ASSERT_TRUE(engine.ok());
  auto r1 = engine.value()->RunRound();
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value().initial_exploration);  // oracle never selects all
  EXPECT_EQ(r1.value().selected, env.OptimalSet(kSelected));
  // Round 2 must pick the identical set with identical strategies (true
  // qualities do not drift).
  auto r2 = engine.value()->RunRound();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().selected, r1.value().selected);
  EXPECT_DOUBLE_EQ(r2.value().consumer_price, r1.value().consumer_price);
}

TEST(TradingEngineTest, ExpectedRevenueUsesEffectiveQualities) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(2), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  auto report = engine.value()->RunRound();
  ASSERT_TRUE(report.ok());
  double expected = 0.0;
  for (int i : report.value().selected) {
    expected += kPois * env.effective_quality(i);
  }
  EXPECT_NEAR(report.value().expected_quality_revenue, expected, 1e-9);
  EXPECT_GT(report.value().observed_quality_revenue, 0.0);
}

TEST(TradingEngineTest, SetSellerActiveValidatesAndTracksDepartures) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());

  // Everyone starts active; re-activating is a no-op.
  EXPECT_TRUE(engine.value()->seller_active(0));
  EXPECT_TRUE(engine.value()->SetSellerActive(0, true).ok());
  EXPECT_TRUE(engine.value()->seller_active(0));

  EXPECT_EQ(engine.value()->SetSellerActive(-1, false).code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(engine.value()->SetSellerActive(kSellers, false).code(),
            util::StatusCode::kOutOfRange);

  EXPECT_TRUE(engine.value()->SetSellerActive(4, false).ok());
  EXPECT_FALSE(engine.value()->seller_active(4));
  EXPECT_TRUE(engine.value()->SetSellerActive(4, false).ok());  // no-op
  EXPECT_FALSE(engine.value()->seller_active(4));
  EXPECT_TRUE(engine.value()->SetSellerActive(4, true).ok());
  EXPECT_TRUE(engine.value()->seller_active(4));
}

TEST(TradingEngineTest, DeactivatingLastSellerIsRefused) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  for (int i = 0; i < kSellers - 1; ++i) {
    ASSERT_TRUE(engine.value()->SetSellerActive(i, false).ok());
  }
  // The marketplace may degrade but never deadlock: the final active
  // seller cannot depart.
  EXPECT_EQ(engine.value()->SetSellerActive(kSellers - 1, false).code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine.value()->seller_active(kSellers - 1));
}

TEST(TradingEngineTest, DepartedSellersSitOutRounds) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->RunRound().ok());  // round 1 selects all
  // With K=3 and only two departures the departed-filter can never empty
  // the coalition, so it always applies (no degrade fallback).
  ASSERT_TRUE(engine.value()->SetSellerActive(2, false).ok());
  ASSERT_TRUE(engine.value()->SetSellerActive(7, false).ok());
  for (int round = 0; round < 8; ++round) {
    auto report = engine.value()->RunRound();
    ASSERT_TRUE(report.ok());
    for (int seller : report.value().selected) {
      EXPECT_TRUE(seller != 2 && seller != 7)
          << "departed seller " << seller << " settled a round";
    }
  }
}

TEST(TradingEngineTest, SnapshotRoundTripsSellerActivityBitmap) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value()->RunRound().ok());
  ASSERT_TRUE(engine.value()->SetSellerActive(3, false).ok());
  ASSERT_TRUE(engine.value()->SetSellerActive(9, false).ok());
  const EngineSnapshot snapshot = engine.value()->CaptureSnapshot();

  auto env2 = MakeEnvironment();
  auto restored = TradingEngine::Create(MakeConfig(), &env2, MakeCucb());
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored.value()->RestoreSnapshot(snapshot).ok());
  EXPECT_FALSE(restored.value()->seller_active(3));
  EXPECT_FALSE(restored.value()->seller_active(9));
  EXPECT_TRUE(restored.value()->seller_active(0));

  // A return after restore clears the departure, and once everyone is
  // back the bitmap resets to the compact "all active" form.
  ASSERT_TRUE(restored.value()->SetSellerActive(3, true).ok());
  ASSERT_TRUE(restored.value()->SetSellerActive(9, true).ok());
  const EngineSnapshot all_back = restored.value()->CaptureSnapshot();
  EXPECT_TRUE(all_back.seller_active.empty());
}

TEST(TradingEngineTest, CucbEnginePricesFromThePolicysBank) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  const TradingEngine& e = *engine.value();
  // One bank: the engine borrows CUCB's instead of keeping a copy.
  EXPECT_EQ(&e.pricing_estimates(), e.policy().estimator());
  for (int r = 0; r < 5; ++r) ASSERT_TRUE(engine.value()->RunRound().ok());
  // Round 1 observes all sellers, later rounds K; L samples each.
  EXPECT_EQ(e.pricing_estimates().total_observations(),
            static_cast<std::uint64_t>((kSellers + 4 * kSelected) * kPois));
}

TEST(TradingEngineTest, OtherPoliciesKeepAPrivatePricingBank) {
  auto env = MakeEnvironment();
  auto oracle = bandit::OraclePolicy::Create(env.effective_qualities(),
                                             kSelected);
  auto random = bandit::RandomPolicy::Create(kSellers, kSelected, 11);
  auto delayed = bandit::DelayedFeedbackPolicy::Create(MakeCucb(), 2);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(random.ok());
  ASSERT_TRUE(delayed.ok());
  std::vector<std::unique_ptr<bandit::SelectionPolicy>> policies;
  policies.push_back(
      std::make_unique<bandit::OraclePolicy>(std::move(oracle).value()));
  policies.push_back(
      std::make_unique<bandit::RandomPolicy>(std::move(random).value()));
  policies.push_back(std::make_unique<bandit::DelayedFeedbackPolicy>(
      std::move(delayed).value()));
  for (auto& policy : policies) {
    const std::string name = policy->name();
    auto engine_env = MakeEnvironment();
    auto engine =
        TradingEngine::Create(MakeConfig(), &engine_env, std::move(policy));
    ASSERT_TRUE(engine.ok()) << name;
    const TradingEngine& e = *engine.value();
    EXPECT_NE(&e.pricing_estimates(), e.policy().estimator()) << name;
    for (int r = 0; r < 5; ++r) {
      ASSERT_TRUE(engine.value()->RunRound().ok()) << name;
    }
    // The private bank learns from every delivered batch, even when the
    // policy's own bank lags (delayed feedback) or does not exist.
    EXPECT_GT(e.pricing_estimates().total_observations(), 0u) << name;
    if (const bandit::EstimatorBank* bank = e.policy().estimator()) {
      EXPECT_LE(bank->total_observations(),
                e.pricing_estimates().total_observations())
          << name;
    }
  }
}

TEST(TradingEngineTest, RestoreFailsClosedWhenPricingAndPolicyArmsDisagree) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  for (int r = 0; r < 4; ++r) ASSERT_TRUE(engine.value()->RunRound().ok());
  const EngineSnapshot snapshot = engine.value()->CaptureSnapshot();
  // The format still carries both sections, written from the one bank.
  ASSERT_TRUE(snapshot.has_policy_arms);
  EXPECT_EQ(snapshot.pricing_arms, snapshot.policy_arms);
  EXPECT_EQ(snapshot.pricing_total_observations,
            snapshot.policy_total_observations);

  auto restore = [](const EngineSnapshot& s) {
    auto fresh_env = MakeEnvironment();
    auto fresh = TradingEngine::Create(MakeConfig(), &fresh_env, MakeCucb());
    EXPECT_TRUE(fresh.ok());
    util::Status status = fresh.value()->RestoreSnapshot(s);
    // A refused snapshot leaves the engine untouched.
    if (!status.ok()) {
      EXPECT_EQ(fresh.value()->current_round(), 0);
    }
    return status;
  };
  EXPECT_TRUE(restore(snapshot).ok());

  // Hand-edited: one pricing mean moved. Each section alone is a valid
  // bank state, but the one bank cannot hold both.
  EngineSnapshot edited_mean = snapshot;
  edited_mean.pricing_arms[0].mean =
      edited_mean.pricing_arms[0].mean > 0.5 ? 0.25 : 0.75;
  util::Status status = restore(edited_mean);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find("disagree"), std::string::npos);

  // Hand-edited: the same observations moved between two arms (totals
  // still agree section by section).
  EngineSnapshot edited_counts = snapshot;
  std::swap(edited_counts.policy_arms[0], edited_counts.policy_arms[1]);
  if (edited_counts.policy_arms != snapshot.policy_arms) {
    EXPECT_FALSE(restore(edited_counts).ok());
  }

  // Hand-edited: the pricing section's total no longer matches.
  EngineSnapshot edited_total = snapshot;
  edited_total.pricing_total_observations += kPois;
  edited_total.pricing_arms[0].observations += kPois;
  EXPECT_FALSE(restore(edited_total).ok());
}

}  // namespace
}  // namespace market
}  // namespace cdt
