// Property suite for the fault-injection / graceful-degradation layer:
// campaigns at 0%, 10% and 30% seller-default rates must finish OK with
// the armed invariant checker silent, a conserved ledger, monotone regret
// and every injected fault accounted for in the engine's per-kind totals,
// and a budget stop must surface as a clean, callback-visible early exit.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/cmab_hs.h"
#include "market/faults.h"
#include "market/invariants.h"
#include "market/trading_engine.h"
#include "support/transfer_trail.h"

namespace cdt {
namespace core {
namespace {

MechanismConfig SmallConfig(std::uint64_t seed, std::int64_t rounds = 300) {
  MechanismConfig config;
  config.num_sellers = 20;
  config.num_selected = 5;
  config.num_pois = 5;
  config.num_rounds = rounds;
  config.seed = seed;
  config.check_invariants = true;
  return config;
}

void ArmFaults(MechanismConfig* config, double default_rate) {
  config->faults.default_rate = default_rate;
  config->faults.corrupt_rate = default_rate / 4.0;
  config->faults.partial_rate = default_rate / 4.0;
  config->faults.settlement_failure_rate = default_rate / 4.0;
}

// Sums the per-report fault events by kind and cross-checks them against
// the engine's per-kind totals. A budget stop ends the campaign without a
// report, so it is the one kind no report carries: the engine counts it
// once if the budget ran out. Returns the number of report events.
std::int64_t ExpectFaultsFullyAccounted(
    const CmabHs& run, const std::vector<market::RoundReport>& reports) {
  std::int64_t report_events = 0;
  std::array<std::int64_t, market::kNumFaultKinds> by_kind{};
  for (const market::RoundReport& r : reports) {
    report_events += static_cast<std::int64_t>(r.faults.size());
    for (const market::FaultEvent& e : r.faults) {
      ++by_kind[static_cast<std::size_t>(e.kind)];
      EXPECT_EQ(e.round, r.round);
    }
  }
  const market::TradingEngine& engine = run.engine();
  EXPECT_EQ(by_kind[static_cast<std::size_t>(market::FaultKind::kBudgetStop)],
            0);
  by_kind[static_cast<std::size_t>(market::FaultKind::kBudgetStop)] =
      engine.budget_exhausted() ? 1 : 0;
  for (int k = 0; k < market::kNumFaultKinds; ++k) {
    const market::FaultKind kind = static_cast<market::FaultKind>(k);
    EXPECT_EQ(engine.fault_count(kind), by_kind[static_cast<std::size_t>(k)])
        << market::FaultKindName(kind);
  }
  return report_events;
}

// Checks the ledger bit-exactly against the transfer trail rebuilt from the
// reports, in which voided rounds move no money; returns how many rounds
// were voided.
int ExpectLedgerMatchesTrail(const market::TradingEngine& engine,
                             const std::vector<market::RoundReport>& reports) {
  testsupport::TransferTrail trail(engine.environment().num_sellers());
  int voided = 0;
  for (const market::RoundReport& r : reports) {
    trail.AddRound(r);
    if (r.voided) ++voided;
  }
  EXPECT_EQ(trail.Mismatch(engine.ledger()), "");
  return voided;
}

class FaultCampaignTest : public ::testing::TestWithParam<double> {};

TEST_P(FaultCampaignTest, CampaignIsViolationFreeConservedAndAccounted) {
  MechanismConfig config = SmallConfig(/*seed=*/404);
  ArmFaults(&config, GetParam());
  ASSERT_TRUE(config.Validate().ok());

  auto run = CmabHs::Create(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::vector<market::RoundReport> reports;
  // The round-1 select-all exploration beats the top-K oracle, so its
  // regret increment is negative by design; monotonicity starts after it.
  double last_regret = -std::numeric_limits<double>::infinity();
  bool regret_monotone = true;
  util::Status status =
      run.value()->RunAll([&](const market::RoundReport& r) {
        reports.push_back(r);
        const double regret = run.value()->metrics().regret();
        if (!r.initial_exploration && regret < last_regret - 1e-9) {
          regret_monotone = false;
        }
        last_regret = regret;
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reports.size(), static_cast<std::size_t>(config.num_rounds));
  EXPECT_TRUE(regret_monotone);

  const market::TradingEngine& engine = run.value()->engine();
  ASSERT_NE(engine.invariant_checker(), nullptr);
  EXPECT_EQ(engine.invariant_checker()->violation_count(), 0u);
  EXPECT_NEAR(engine.ledger().NetPosition(), 0.0, 1e-6);
  const std::int64_t fault_events =
      ExpectFaultsFullyAccounted(*run.value(), reports);
  ExpectLedgerMatchesTrail(engine, reports);

  if (GetParam() == 0.0) {
    EXPECT_EQ(fault_events, 0);
    EXPECT_EQ(run.value()->metrics().degraded_rounds(), 0);
  } else {
    EXPECT_GT(fault_events, 0);
    EXPECT_GT(run.value()->metrics().degraded_rounds(), 0);
    // Only genuinely delivering rounds feed the bandit: voided rounds
    // never contribute observations, so every degraded round still left
    // estimator means inside [0, 1] (checked by the armed checker).
  }
}

INSTANTIATE_TEST_SUITE_P(DefaultRates, FaultCampaignTest,
                         ::testing::Values(0.0, 0.1, 0.3));

TEST(FaultDeterminismTest, ArmedRunsReplayBitForBit) {
  MechanismConfig config = SmallConfig(/*seed=*/77, /*rounds=*/150);
  ArmFaults(&config, 0.25);

  std::vector<market::RoundReport> first, second;
  for (std::vector<market::RoundReport>* sink : {&first, &second}) {
    auto run = CmabHs::Create(config);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    util::Status status = run.value()->RunAll(
        [&](const market::RoundReport& r) { sink->push_back(r); });
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    const market::RoundReport& a = first[i];
    const market::RoundReport& b = second[i];
    EXPECT_EQ(a.selected, b.selected);
    EXPECT_EQ(a.consumer_price, b.consumer_price);
    EXPECT_EQ(a.collection_price, b.collection_price);
    EXPECT_EQ(a.tau, b.tau);
    EXPECT_EQ(a.contracted_tau, b.contracted_tau);
    EXPECT_EQ(a.consumer_profit, b.consumer_profit);
    EXPECT_EQ(a.platform_profit, b.platform_profit);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.resettled, b.resettled);
    EXPECT_EQ(a.voided, b.voided);
    EXPECT_EQ(a.settlement_attempts, b.settlement_attempts);
    EXPECT_EQ(market::EncodeFaultSummary(a.faults),
              market::EncodeFaultSummary(b.faults));
  }
}

TEST(FaultBudgetTest, BudgetStopIsCleanAndVisibleInTheFaultLog) {
  MechanismConfig config = SmallConfig(/*seed=*/5, /*rounds=*/200);
  config.consumer_budget = 5000.0;  // exhausts well before 200 rounds

  auto run = CmabHs::Create(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::int64_t rounds_seen = 0;
  util::Status status = run.value()->RunAll(
      [&](const market::RoundReport& r) { rounds_seen = r.round; });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(run.value()->engine().budget_exhausted());
  EXPECT_LT(rounds_seen, config.num_rounds);
  EXPECT_GT(rounds_seen, 0);

  const market::TradingEngine& engine = run.value()->engine();
  EXPECT_EQ(engine.fault_count(market::FaultKind::kBudgetStop), 1);
}

TEST(FaultBudgetTest, BudgetedFaultCampaignCountsOneBudgetStop) {
  MechanismConfig config = SmallConfig(/*seed=*/31, /*rounds=*/300);
  ArmFaults(&config, 0.2);
  config.consumer_budget = 5000.0;  // exhausts well before 300 rounds
  ASSERT_TRUE(config.Validate().ok());

  auto run = CmabHs::Create(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<market::RoundReport> reports;
  util::Status status = run.value()->RunAll(
      [&](const market::RoundReport& r) { reports.push_back(r); });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(run.value()->engine().budget_exhausted());
  EXPECT_LT(reports.size(), static_cast<std::size_t>(config.num_rounds));

  EXPECT_GT(ExpectFaultsFullyAccounted(*run.value(), reports), 0);
  EXPECT_EQ(run.value()->engine().fault_count(market::FaultKind::kBudgetStop),
            1);
  ExpectLedgerMatchesTrail(run.value()->engine(), reports);
}

// The issue's acceptance campaign: a long run at a 30% default rate (side
// fault families riding along) completes OK with zero invariant violations,
// a conserved ledger, quarantines actually firing, and the structured logs
// accounting for every event.
TEST(FaultAcceptanceTest, LongCampaignAtThirtyPercentDefaults) {
  MechanismConfig config;
  config.num_sellers = 15;
  config.num_selected = 4;
  config.num_pois = 4;
  config.num_rounds = 5000;
  config.seed = 20260805;
  config.check_invariants = true;
  ArmFaults(&config, 0.3);
  ASSERT_TRUE(config.Validate().ok());

  auto run = CmabHs::Create(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::vector<market::RoundReport> reports;
  reports.reserve(static_cast<std::size_t>(config.num_rounds));
  util::Status status = run.value()->RunAll(
      [&](const market::RoundReport& r) { reports.push_back(r); });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(config.num_rounds));

  const market::TradingEngine& engine = run.value()->engine();
  ASSERT_NE(engine.invariant_checker(), nullptr);
  EXPECT_EQ(engine.invariant_checker()->violation_count(), 0u);
  EXPECT_NEAR(engine.ledger().NetPosition(), 0.0, 1e-6);
  ExpectFaultsFullyAccounted(*run.value(), reports);
  // Settlement failures past the retry budget void rounds here.
  EXPECT_GT(ExpectLedgerMatchesTrail(engine, reports), 0);

  // At this rate every fault family and the breaker must actually fire.
  EXPECT_GT(engine.fault_count(market::FaultKind::kSellerDefault), 0);
  EXPECT_GT(engine.fault_count(market::FaultKind::kCorruptedReport), 0);
  EXPECT_GT(engine.fault_count(market::FaultKind::kPartialDelivery), 0);
  EXPECT_GT(engine.fault_count(market::FaultKind::kSettlementFailure), 0);
  EXPECT_GT(engine.fault_count(market::FaultKind::kQuarantine), 0);
  const std::int64_t opened = engine.reliability().total_opened();
  std::int64_t per_seller_opened = 0;
  for (int i = 0; i < config.num_sellers; ++i) {
    per_seller_opened += engine.reliability().seller(i).times_opened;
  }
  EXPECT_EQ(opened, per_seller_opened);
  EXPECT_GT(opened, 0);

  // Degradation must not have destroyed learning: the collector still saw
  // every round and regret stayed finite.
  EXPECT_EQ(run.value()->metrics().rounds(), config.num_rounds);
  EXPECT_TRUE(std::isfinite(run.value()->metrics().regret()));
}

}  // namespace
}  // namespace core
}  // namespace cdt
