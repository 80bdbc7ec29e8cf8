#include "market/trading_engine.h"

#include <memory>

#include <gtest/gtest.h>

#include "bandit/baseline_policies.h"
#include "bandit/cucb_policy.h"
#include "bandit/availability_policy.h"
#include "bandit/extension_policies.h"
#include "bandit/nonstationary_policies.h"
#include "stats/rng.h"
#include "support/reference_collect.h"
#include "support/run_engine.h"

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
  ASSERT_TRUE(testsupport::RunEngineToEnd(engine.value().get()).ok());
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
  ASSERT_TRUE(testsupport::RunEngineToEnd(
                  engine.value().get(),
                  [&](const RoundReport& report) {
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
  ASSERT_TRUE(testsupport::RunEngineToEnd(engine.value().get()).ok());
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

// CUCB that claims to restore exactly but hands out no writable bank.
class HiddenBankCucb : public bandit::SelectionPolicy {
 public:
  HiddenBankCucb() : inner_(MakeCucb()) {}
  std::string name() const override { return "hidden-bank"; }
  int num_sellers() const override { return inner_->num_sellers(); }
  util::Result<std::vector<int>> SelectRound(std::int64_t round) override {
    return inner_->SelectRound(round);
  }
  util::Status Observe(
      const std::vector<int>& selected,
      const std::vector<std::vector<double>>& observations) override {
    return inner_->Observe(selected, observations);
  }
  const bandit::EstimatorBank* estimator() const override {
    return inner_->estimator();
  }
  bool snapshot_safe() const override { return true; }

 private:
  std::unique_ptr<bandit::SelectionPolicy> inner_;
};

TEST(TradingEngineTest, RestoreRefusesAPolicyThatHidesItsBank) {
  auto env = MakeEnvironment();
  auto engine = TradingEngine::Create(MakeConfig(), &env, MakeCucb());
  ASSERT_TRUE(engine.ok());
  for (int r = 0; r < 3; ++r) ASSERT_TRUE(engine.value()->RunRound().ok());
  const EngineSnapshot snapshot = engine.value()->CaptureSnapshot();

  auto fresh_env = MakeEnvironment();
  auto fresh = TradingEngine::Create(MakeConfig(), &fresh_env,
                                     std::make_unique<HiddenBankCucb>());
  ASSERT_TRUE(fresh.ok());
  const util::Status status = fresh.value()->RestoreSnapshot(snapshot);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition)
      << status.ToString();
  // Refused before any mutation.
  EXPECT_EQ(fresh.value()->current_round(), 0);
  EXPECT_EQ(fresh.value()->pricing_estimates().total_observations(), 0u);
}

TEST(TradingEngineTest, EnginePricesFromThePolicysBankOrAPrivateOne) {
  auto env = MakeEnvironment();
  auto oracle = bandit::OraclePolicy::Create(env.effective_qualities(),
                                             kSelected);
  auto random = bandit::RandomPolicy::Create(kSellers, kSelected, 11);
  auto window =
      bandit::SlidingWindowCucbPolicy::Create(kSellers, kSelected, 8);
  auto discounted =
      bandit::DiscountedUcbPolicy::Create(kSellers, kSelected, 0.9);
  auto first =
      bandit::EpsilonFirstPolicy::Create(kSellers, kSelected, 20, 0.2, 12);
  auto greedy =
      bandit::EpsilonGreedyPolicy::Create(kSellers, kSelected, 0.3, 13);
  auto thompson = bandit::ThompsonPolicy::Create(kSellers, kSelected, 14);
  auto available = bandit::AvailabilityAwareCucbPolicy::Create(
      kSellers, kSelected,
      [](int seller, std::int64_t round) { return (seller + round) % 4 != 0; });
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(random.ok());
  ASSERT_TRUE(window.ok());
  ASSERT_TRUE(discounted.ok());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(thompson.ok());
  ASSERT_TRUE(available.ok());
  // The first four keep no Eq. (17)-(18) bank; the last four do.
  std::vector<std::unique_ptr<bandit::SelectionPolicy>> policies;
  policies.push_back(
      std::make_unique<bandit::OraclePolicy>(std::move(oracle).value()));
  policies.push_back(
      std::make_unique<bandit::RandomPolicy>(std::move(random).value()));
  policies.push_back(std::make_unique<bandit::SlidingWindowCucbPolicy>(
      std::move(window).value()));
  policies.push_back(std::make_unique<bandit::DiscountedUcbPolicy>(
      std::move(discounted).value()));
  policies.push_back(
      std::make_unique<bandit::EpsilonFirstPolicy>(std::move(first).value()));
  policies.push_back(std::make_unique<bandit::EpsilonGreedyPolicy>(
      std::move(greedy).value()));
  policies.push_back(
      std::make_unique<bandit::ThompsonPolicy>(std::move(thompson).value()));
  policies.push_back(std::make_unique<bandit::AvailabilityAwareCucbPolicy>(
      std::move(available).value()));
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const std::string name = policies[p]->name();
    const bool has_bank = p >= 4;
    auto engine_env = MakeEnvironment();
    auto engine = TradingEngine::Create(MakeConfig(), &engine_env,
                                        std::move(policies[p]));
    ASSERT_TRUE(engine.ok()) << name;
    const TradingEngine& e = *engine.value();
    const bandit::EstimatorBank& pricing = e.pricing_estimates();
    if (has_bank) {
      // One bank: the engine prices from the policy's.
      EXPECT_EQ(&pricing, e.policy().estimator()) << name;
    } else {
      EXPECT_EQ(e.policy().estimator(), nullptr) << name;
    }
    // No faults are armed, so every selected seller delivers L samples,
    // and the one bank holds each of them exactly once.
    std::vector<std::uint64_t> delivered(kSellers, 0);
    for (int r = 1; r <= 5; ++r) {
      auto report = engine.value()->RunRound();
      ASSERT_TRUE(report.ok()) << name;
      for (int seller : report.value().selected) {
        delivered[static_cast<std::size_t>(seller)] += kPois;
      }
      std::uint64_t total = 0;
      for (std::uint64_t n : delivered) total += n;
      EXPECT_EQ(pricing.observation_counts(), delivered)
          << name << " round " << r;
      EXPECT_EQ(pricing.total_observations(), total)
          << name << " round " << r;
    }
  }
}

// The collect stage against its oracle, the one-pass loop: over random
// coalitions on copies of one environment and one tracker, the prefetched
// batched stage must leave the same report (revenues, fault log, degraded
// flag), the same learners and batches, the same tracker rows and the same
// observation stream. The armed case corrupts and shortens deliveries and
// opens breakers (threshold 2), so RecordFault, probation and re-opening
// all run; the unarmed case is the production large-M path.
TEST(TradingEngineTest, CollectCoalitionMatchesOnePassOracle) {
  for (bool armed : {false, true}) {
    for (int pois : {3, 10}) {
      bandit::EnvironmentConfig env_config;
      env_config.num_sellers = 400;
      env_config.num_pois = pois;
      env_config.seed = 31 + static_cast<std::uint64_t>(pois);
      auto created = bandit::QualityEnvironment::Create(env_config);
      ASSERT_TRUE(created.ok());
      bandit::QualityEnvironment env = created.value();
      bandit::QualityEnvironment oracle_env = created.value();
      RecoveryOptions recovery;
      recovery.quarantine_threshold = 2;
      recovery.quarantine_cooldown = 3;
      ReliabilityTracker tracker(env_config.num_sellers, recovery);
      ReliabilityTracker oracle_tracker(env_config.num_sellers, recovery);
      FaultProfile profile;
      profile.corrupt_rate = 0.3;
      profile.partial_rate = 0.2;
      FaultInjector injector(profile);
      const FaultInjector* maybe = armed ? &injector : nullptr;
      CollectBuffers buffers;
      CollectBuffers oracle_buffers;
      stats::Xoshiro256 rng(armed ? 3 : 4);
      std::vector<int> ids(static_cast<std::size_t>(env_config.num_sellers));
      for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
      std::int64_t corrupt = 0;
      for (std::int64_t t = 1; t <= 80; ++t) {
        for (std::size_t i = ids.size() - 1; i > 0; --i) {
          std::swap(ids[i], ids[rng.Next() % (i + 1)]);
        }
        RoundReport report;
        report.round = t;
        report.selected.assign(ids.begin(),
                               ids.begin() + 1 +
                                   static_cast<long>(rng.Next() % 120));
        std::vector<SellerFaultDraw> draws;
        if (armed) {
          for (int seller : report.selected) {
            draws.push_back(injector.DrawSeller(t, seller));
          }
        }
        RoundReport oracle_report = report;
        CollectCoalition(maybe, draws, &env, &tracker, &report, &buffers);
        testsupport::ReferenceCollectCoalition(maybe, draws, &oracle_env,
                                               &oracle_tracker,
                                               &oracle_report, &oracle_buffers);
        ASSERT_EQ(report.observed_quality_revenue,
                  oracle_report.observed_quality_revenue);
        ASSERT_EQ(report.expected_quality_revenue,
                  oracle_report.expected_quality_revenue);
        ASSERT_EQ(report.degraded, oracle_report.degraded);
        ASSERT_EQ(EncodeFaultSummary(report.faults),
                  EncodeFaultSummary(oracle_report.faults));
        corrupt += static_cast<std::int64_t>(report.faults.size());
        ASSERT_EQ(buffers.learners, oracle_buffers.learners);
        ASSERT_EQ(buffers.batches, oracle_buffers.batches);
        ASSERT_EQ(tracker.sellers(), oracle_tracker.sellers()) << "round " << t;
        ASSERT_EQ(tracker.total_faults(), oracle_tracker.total_faults());
        ASSERT_EQ(tracker.total_opened(), oracle_tracker.total_opened());
        const bandit::EnvironmentState a = env.SaveState();
        const bandit::EnvironmentState b = oracle_env.SaveState();
        ASSERT_EQ(a.rng_state, b.rng_state);
        ASSERT_EQ(a.has_spare, b.has_spare);
        ASSERT_EQ(a.spare, b.spare);
        buffers.Recycle();
        oracle_buffers.Recycle();
      }
      if (armed) {
        EXPECT_GT(corrupt, 0);
        EXPECT_GT(tracker.total_opened(), 0);
      } else {
        EXPECT_EQ(corrupt, 0);
      }
    }
  }
}

}  // namespace
}  // namespace market
}  // namespace cdt
