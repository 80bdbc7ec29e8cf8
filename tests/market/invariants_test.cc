// Unit tests for the economic-invariant checker: clean engine runs stay
// violation-free, and deliberately broken states (mutated ledger entries,
// loss-making sellers, frozen bandit counters, doctored prices) are caught
// with structured violation records.

#include "market/invariants.h"

#include <memory>

#include <gtest/gtest.h>

#include "bandit/cucb_policy.h"
#include "core/cmab_hs.h"
#include "game/profit.h"
#include "game/stackelberg.h"
#include "market/trading_engine.h"
#include "stats/rng.h"
#include "support/generators.h"
#include "support/reference_stackelberg.h"

namespace cdt {
namespace market {
namespace {

// --- fabricated-state helpers -------------------------------------------

// A two-seller exploration round whose report is internally consistent;
// tests then mutate one side of it. Exploration rounds skip the IR and
// stationarity families, isolating the ledger checks. (The view holds
// pointers into the scenario, so it is built in place, never copied.)
struct BrokenScenario {
  Ledger ledger{2, true};
  std::vector<game::SellerCostParams> costs{{0.2, 0.5}, {0.3, 0.4}};
  EngineStateView view;
  RoundReport report;

  BrokenScenario() {
    view.seller_costs = &costs;
    view.ledger = &ledger;
    view.platform_cost = {0.1, 1.0};
    view.valuation = {100.0};
    view.consumer_price_bounds = {0.01, 100.0};
    view.collection_price_bounds = {0.01, 5.0};
    view.max_sensing_time = 1000.0;
    view.num_pois = 4;
    view.num_selected = 2;

    RoundReport& r = report;
    r.round = 1;
    r.initial_exploration = true;
    r.selected = {0, 1};
    r.tau = {1.0, 2.0};
    r.total_time = 3.0;
    r.collection_price = 1.0;
    r.consumer_price = 3.0;
    r.game_qualities = {0.5, 0.5};
    r.seller_profits.resize(2);
    for (int j = 0; j < 2; ++j) {
      r.seller_profits[j] = game::SellerProfit(
          r.collection_price, r.tau[j], costs[j], r.game_qualities[j]);
      r.seller_profit_total += r.seller_profits[j];
    }
    r.platform_profit =
        game::PlatformProfit(r.consumer_price, r.collection_price,
                             r.total_time, view.platform_cost);
    r.consumer_profit = game::ConsumerProfit(r.consumer_price, 0.5,
                                             r.total_time, view.valuation);
  }
};

// Settles the scenario's payments faithfully, with `skim` withheld from
// seller 0's payment (skim = 0 reproduces the engine's settlement exactly).
void Settle(BrokenScenario& s, double skim) {
  const RoundReport& r = s.report;
  ASSERT_TRUE(s.ledger
                  .Record(r.round, kConsumerAccount, kPlatformAccount,
                          r.consumer_price * r.total_time, "reward")
                  .ok());
  ASSERT_TRUE(s.ledger
                  .Record(r.round, kPlatformAccount, 0,
                          r.collection_price * r.tau[0] - skim, "pay")
                  .ok());
  ASSERT_TRUE(s.ledger
                  .Record(r.round, kPlatformAccount, 1,
                          r.collection_price * r.tau[1], "pay")
                  .ok());
}

TEST(InvariantCheckerTest, ConsistentFabricatedRoundPasses) {
  BrokenScenario s;
  Settle(s, 0.0);
  InvariantChecker checker;
  EXPECT_TRUE(checker.Check(s.view, s.report).ok());
  EXPECT_EQ(checker.violation_count(), 0u);
}

TEST(InvariantCheckerTest, MutatedLedgerEntryIsDetected) {
  BrokenScenario s;
  Settle(s, 0.25);  // platform skims a quarter from seller 0's payment
  InvariantChecker checker;
  util::Status status = checker.Check(s.view, s.report);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("invariant violation in round 1"),
            std::string::npos)
      << status.ToString();

  ASSERT_GE(checker.violation_count(), 1u);
  bool found = false;
  for (const InvariantViolation& v : checker.violations()) {
    EXPECT_EQ(v.kind, InvariantKind::kLedgerConservation);
    EXPECT_EQ(v.round, 1);
    if (v.check == "ledger.seller_balance") {
      found = true;
      EXPECT_NEAR(v.magnitude, 0.25, 1e-9);
      EXPECT_NE(v.detail.find("seller 0"), std::string::npos) << v.detail;
    }
  }
  EXPECT_TRUE(found) << "no ledger.seller_balance record";
}

TEST(InvariantCheckerTest, DoctoredReportProfitIsDetected) {
  BrokenScenario s;
  Settle(s, 0.0);
  s.report.platform_profit += 0.5;  // report inflates the platform's profit
  InvariantChecker checker;
  EXPECT_FALSE(checker.Check(s.view, s.report).ok());
  bool flow = false, profit = false;
  for (const InvariantViolation& v : checker.violations()) {
    flow = flow || v.check == "ledger.flow_identity";
    profit = profit || v.check == "report.platform_profit";
  }
  EXPECT_TRUE(flow);
  EXPECT_TRUE(profit);
}

TEST(InvariantCheckerTest, LossMakingSellerViolatesIr) {
  BrokenScenario s;
  // Regular round: τ = 2 at a collection price far below marginal cost.
  s.report.initial_exploration = false;
  s.report.collection_price = 0.1;
  s.report.consumer_price = 3.0;
  for (int j = 0; j < 2; ++j) {
    s.report.seller_profits[j] =
        game::SellerProfit(s.report.collection_price, s.report.tau[j],
                           s.costs[j], s.report.game_qualities[j]);
  }
  s.report.seller_profit_total =
      s.report.seller_profits[0] + s.report.seller_profits[1];
  s.report.platform_profit =
      game::PlatformProfit(s.report.consumer_price, s.report.collection_price,
                           s.report.total_time, s.view.platform_cost);
  Settle(s, 0.0);
  ASSERT_LT(s.report.seller_profits[1], 0.0);

  InvariantOptions options;
  options.check_stationarity = false;  // the round is deliberately off-path
  InvariantChecker checker(options);
  EXPECT_FALSE(checker.Check(s.view, s.report).ok());
  bool found = false;
  for (const InvariantViolation& v : checker.violations()) {
    if (v.check == "ir.seller") {
      found = true;
      EXPECT_EQ(v.kind, InvariantKind::kIndividualRationality);
    }
  }
  EXPECT_TRUE(found);
}

TEST(InvariantCheckerTest, SuboptimalCollectionPriceViolatesStationarity) {
  // Solve a real game, then report the platform charging the box floor
  // instead of its best response (sellers re-respond, profits recomputed:
  // every other family stays consistent).
  game::GameConfig config;
  config.sellers = {{0.2, 0.5}, {0.3, 0.4}};
  config.qualities = {0.8, 0.8};
  config.platform = {0.1, 1.0};
  config.valuation = {100.0};
  config.consumer_price_bounds = {0.01, 100.0};
  config.collection_price_bounds = {0.01, 10.0};
  config.max_sensing_time = 1e6;
  auto solver = game::StackelbergSolver::Create(config);
  ASSERT_TRUE(solver.ok());
  game::StrategyProfile eq = solver.value().Solve();

  std::vector<game::SellerCostParams> costs = config.sellers;
  EngineStateView view;
  view.seller_costs = &costs;
  view.platform_cost = config.platform;
  view.valuation = config.valuation;
  view.consumer_price_bounds = config.consumer_price_bounds;
  view.collection_price_bounds = config.collection_price_bounds;
  view.max_sensing_time = config.max_sensing_time;
  view.num_pois = 4;
  view.num_selected = 2;

  RoundReport report;
  report.round = 1;
  report.selected = {0, 1};
  report.consumer_price = eq.consumer_price;
  report.collection_price = config.collection_price_bounds.lo;
  report.tau = solver.value().SellerBestTimes(report.collection_price);
  report.total_time = game::TotalTime(report.tau);
  report.game_qualities = config.qualities;
  report.seller_profits.resize(2);
  for (int j = 0; j < 2; ++j) {
    report.seller_profits[j] =
        game::SellerProfit(report.collection_price, report.tau[j], costs[j],
                           report.game_qualities[j]);
    report.seller_profit_total += report.seller_profits[j];
  }
  report.platform_profit =
      game::PlatformProfit(report.consumer_price, report.collection_price,
                           report.total_time, view.platform_cost);
  report.consumer_profit = game::ConsumerProfit(
      report.consumer_price, 0.8, report.total_time, view.valuation);

  InvariantChecker checker;
  EXPECT_FALSE(checker.Check(view, report).ok());
  bool found = false;
  for (const InvariantViolation& v : checker.violations()) {
    if (v.check == "stationarity.platform_opt") {
      found = true;
      EXPECT_EQ(v.kind, InvariantKind::kStationarity);
      EXPECT_GT(v.magnitude, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(InvariantCheckerTest, FrozenBanditCounterIsDetected) {
  BrokenScenario s;
  auto bank = bandit::EstimatorBank::Create(2, 1.0);
  ASSERT_TRUE(bank.ok());
  std::vector<double> obs(4, 0.5);
  ASSERT_TRUE(bank.value().Update(0, obs).ok());
  ASSERT_TRUE(bank.value().Update(1, obs).ok());
  s.view.estimates = &bank.value();

  InvariantChecker checker;
  Settle(s, 0.0);
  ASSERT_TRUE(checker.Check(s.view, s.report).ok());

  // Round 2 reuses the same bank without new observations: both the total
  // and the per-arm counters fail to advance by L per selected seller.
  BrokenScenario s2;
  s2.report.round = 2;
  s2.view.estimates = &bank.value();
  // Rebuild the cumulative ledger the checker expects after two rounds.
  Settle(s2, 0.0);
  s2.report.round = 2;  // re-settle under round 2's id for entry bookkeeping
  util::Status status = checker.Check(s2.view, s2.report);
  // The fresh scenario's ledger only holds one round of money, so ledger
  // violations fire too; the bandit family must be among them.
  ASSERT_FALSE(status.ok());
  bool counter = false;
  for (const InvariantViolation& v : checker.violations()) {
    if (v.check == "bandit.total_counter" || v.check == "bandit.arm_counter") {
      counter = true;
      EXPECT_EQ(v.kind, InvariantKind::kBanditSanity);
    }
  }
  EXPECT_TRUE(counter);
}

// A select-all round (K = M) with corrupted-report faults on two sellers:
// the corrupted batches are discarded, so the counters must advance by L
// for every other seller and stay put for those two.
TEST(InvariantCheckerTest, SelectAllRoundWithTwoCorruptedReports) {
  constexpr int kSellers = 64;
  constexpr int kPois = 3;
  auto bank = bandit::EstimatorBank::Create(kSellers, 1.0);
  ASSERT_TRUE(bank.ok());
  const std::vector<double> obs(kPois, 0.5);
  EngineStateView view;
  view.estimates = &bank.value();
  view.num_pois = kPois;
  view.num_selected = kSellers;
  RoundReport report;
  for (int i = 0; i < kSellers; ++i) report.selected.push_back(i);
  for (int seller : {7, 31, kSellers + 5}) {  // the last id is outside M
    FaultEvent fault;
    fault.kind = FaultKind::kCorruptedReport;
    fault.seller = seller;
    report.faults.push_back(fault);
  }
  auto bandit_checks = [](const InvariantChecker& checker) {
    std::vector<std::string> checks;
    for (const InvariantViolation& v : checker.violations()) {
      checks.push_back(v.check + "#" + v.detail);
    }
    return checks;
  };

  InvariantChecker checker;
  // Round 1: every delivered seller observed, the two corrupted ones not.
  report.round = 1;
  for (int i = 0; i < kSellers; ++i) {
    if (i != 7 && i != 31) {
      ASSERT_TRUE(bank.value().Update(i, obs).ok());
    }
  }
  checker.CheckBandit(view, report);
  EXPECT_EQ(checker.violation_count(), 0u);

  // Round 2: seller 7's corrupted batch is wrongly absorbed and seller 3's
  // delivered batch dropped. The total still matches (one for one), so
  // exactly the two per-arm counters are flagged.
  report.round = 2;
  for (int i = 0; i < kSellers; ++i) {
    if (i != 3 && i != 31) {
      ASSERT_TRUE(bank.value().Update(i, obs).ok());
    }
  }
  checker.CheckBandit(view, report);
  EXPECT_EQ(bandit_checks(checker),
            (std::vector<std::string>{
                "bandit.arm_counter#seller 3 counter 3, expected 6",
                "bandit.arm_counter#seller 7 counter 3, expected 0"}));

  // Round 3, voided: nothing is delivered, so any advance is flagged.
  report.round = 3;
  report.voided = true;
  ASSERT_TRUE(bank.value().Update(0, obs).ok());
  checker.CheckBandit(view, report);
  ASSERT_EQ(checker.violation_count(), 4u);
  EXPECT_EQ(checker.violations()[2].check, "bandit.total_counter");
  EXPECT_EQ(checker.violations()[3].detail, "seller 0 counter 9, expected 6");
}

// Builds the report of an equilibrium round of `config`'s game, with
// sellers 0..K-1 of `costs` selected.
RoundReport EquilibriumReport(const game::GameConfig& config,
                              std::int64_t round) {
  auto solver = game::StackelbergSolver::Create(config);
  EXPECT_TRUE(solver.ok());
  game::StrategyProfile eq = solver.value().Solve();
  RoundReport report;
  report.round = round;
  for (std::size_t i = 0; i < config.sellers.size(); ++i) {
    report.selected.push_back(static_cast<int>(i));
  }
  report.consumer_price = eq.consumer_price;
  report.collection_price = eq.collection_price;
  report.tau = eq.tau;
  report.game_qualities = config.qualities;
  return report;
}

EngineStateView GameView(const game::GameConfig& config,
                         const std::vector<game::SellerCostParams>* costs) {
  EngineStateView view;
  view.seller_costs = costs;
  view.platform_cost = config.platform;
  view.valuation = config.valuation;
  view.consumer_price_bounds = config.consumer_price_bounds;
  view.collection_price_bounds = config.collection_price_bounds;
  view.max_sensing_time = config.max_sensing_time;
  return view;
}

// The checker keeps one solver across rounds: re-targeted while the
// economics hold, re-created when they change, and still rejecting games
// GameConfig::Validate would reject.
TEST(InvariantCheckerTest, StationaritySolverFollowsTheRoundsGame) {
  game::GameConfig config;
  config.sellers = {{0.2, 0.5}, {0.3, 0.4}, {0.25, 0.3}};
  config.qualities = {0.8, 0.6, 0.7};
  config.platform = {0.1, 1.0};
  config.valuation = {100.0};
  config.consumer_price_bounds = {0.01, 100.0};
  config.collection_price_bounds = {0.01, 10.0};
  config.max_sensing_time = 1e6;
  std::vector<game::SellerCostParams> costs = config.sellers;
  InvariantChecker checker;
  auto checks = [&checker] {
    std::vector<std::string> out;
    for (const InvariantViolation& v : checker.violations()) {
      out.push_back(v.check);
    }
    return out;
  };

  // Round 1: an equilibrium round passes.
  EngineStateView view = GameView(config, &costs);
  checker.CheckStationarity(view, EquilibriumReport(config, 1));
  EXPECT_EQ(checker.violation_count(), 0u);

  // Round 2, same economics: a quality outside (0, 1] is not solvable.
  RoundReport bad_quality = EquilibriumReport(config, 2);
  bad_quality.game_qualities[1] = 0.0;
  checker.CheckStationarity(view, bad_quality);
  ASSERT_EQ(checks(), (std::vector<std::string>{"stationarity.config"}));
  EXPECT_NE(checker.violations()[0].detail.find("(0, 1]"), std::string::npos);

  // Round 3: a selected seller without cost parameters.
  RoundReport bad_seller = EquilibriumReport(config, 3);
  bad_seller.selected[2] = 17;
  checker.CheckStationarity(view, bad_seller);
  EXPECT_EQ(checker.violation_count(), 2u);
  EXPECT_EQ(checker.violations()[1].check, "stationarity.config");

  // Round 4, same economics: invalid cost parameters are still rejected.
  std::vector<game::SellerCostParams> broken = costs;
  broken[0].a = 0.0;
  EngineStateView broken_view = GameView(config, &broken);
  checker.CheckStationarity(broken_view, EquilibriumReport(config, 4));
  EXPECT_EQ(checker.violation_count(), 3u);
  EXPECT_EQ(checker.violations()[2].check, "stationarity.config");

  // Round 5, new economics: the new game's equilibrium passes, which it
  // would not against the old game (different θ moves the best response).
  game::GameConfig changed = config;
  changed.platform = {0.5, 0.2};
  EngineStateView changed_view = GameView(changed, &costs);
  RoundReport changed_eq = EquilibriumReport(changed, 5);
  checker.CheckStationarity(changed_view, changed_eq);
  EXPECT_EQ(checker.violation_count(), 3u);
  // ... and the old game's equilibrium fails under the new economics.
  checker.CheckStationarity(changed_view, EquilibriumReport(config, 6));
  EXPECT_GT(checker.violation_count(), 3u);
  // Back under the old economics, the old equilibrium passes again.
  const std::size_t before = checker.violation_count();
  checker.CheckStationarity(view, EquilibriumReport(config, 7));
  EXPECT_EQ(checker.violation_count(), before);
}

// The report of a round of `config`'s game in which the consumer posted
// `consumer_price` and the platform and sellers played their best
// responses to it (sellers 0..K-1 of `costs` selected).
RoundReport ReportAtConsumerPrice(const game::GameConfig& config,
                                  std::int64_t round, double consumer_price) {
  RoundReport report = EquilibriumReport(config, round);
  auto solver = game::StackelbergSolver::Create(config);
  EXPECT_TRUE(solver.ok());
  report.consumer_price = consumer_price;
  report.collection_price = solver.value().PlatformBestPrice(consumer_price);
  report.tau = solver.value().SellerBestTimes(report.collection_price);
  return report;
}

std::vector<std::string> StationarityChecks(const InvariantChecker& checker) {
  std::vector<std::string> out;
  for (const InvariantViolation& v : checker.violations()) {
    out.push_back(v.check);
  }
  return out;
}

// A consumer price below the optimum, with every later stage responding
// to it, violates only Stage 1's optimality.
TEST(InvariantCheckerTest, DoctoredConsumerPriceViolatesStationarity) {
  game::GameConfig config;
  config.sellers = {{0.2, 0.5}, {0.3, 0.4}, {0.25, 0.3}};
  config.qualities = {0.8, 0.6, 0.7};
  config.platform = {0.1, 1.0};
  config.valuation = {100.0};
  config.consumer_price_bounds = {0.01, 100.0};
  config.collection_price_bounds = {0.01, 10.0};
  config.max_sensing_time = 1e6;
  std::vector<game::SellerCostParams> costs = config.sellers;
  const EngineStateView view = GameView(config, &costs);

  InvariantChecker checker;
  const RoundReport equilibrium = EquilibriumReport(config, 1);
  checker.CheckStationarity(view, equilibrium);
  EXPECT_EQ(checker.violation_count(), 0u);

  checker.CheckStationarity(
      view, ReportAtConsumerPrice(config, 2, 0.7 * equilibrium.consumer_price));
  ASSERT_EQ(StationarityChecks(checker),
            (std::vector<std::string>{"stationarity.consumer_opt"}));
  EXPECT_EQ(checker.violations()[0].kind, InvariantKind::kStationarity);
  EXPECT_GT(checker.violations()[0].magnitude, 0.0);
}

// A Stage-1 miss of the heuristic search (candidates, grid, golden section
// and jump bisection; testsupport::ReferenceStackelberg) on a
// RandomGameConfig game: its price earns 293.030 where the regime walk's
// earns 294.577, so the checker flags it and passes the walk's. A checker
// that re-ran the heuristic could not see the miss.
TEST(InvariantCheckerTest, HeuristicStage1MissViolatesStationarity) {
  stats::Xoshiro256 rng(2600 * 0x9E3779B97F4A7C15ULL);
  const game::GameConfig config = testsupport::RandomGameConfig(rng);
  std::vector<game::SellerCostParams> costs = config.sellers;
  const EngineStateView view = GameView(config, &costs);
  auto solver = game::StackelbergSolver::Create(config);
  ASSERT_TRUE(solver.ok());

  const double heuristic =
      testsupport::ReferenceStackelberg(config).ConsumerBestPrice();
  EXPECT_NEAR(heuristic, 9.1998, 1e-4);
  EXPECT_NEAR(solver.value().ConsumerProfitAnticipating(heuristic), 293.030,
              1e-3);
  InvariantChecker checker;
  checker.CheckStationarity(view, ReportAtConsumerPrice(config, 1, heuristic));
  ASSERT_EQ(StationarityChecks(checker),
            (std::vector<std::string>{"stationarity.consumer_opt"}));
  EXPECT_NEAR(checker.violations()[0].magnitude, 294.577 - 293.030, 1e-3);

  const double walk = solver.value().ConsumerBestPrice();
  EXPECT_NEAR(walk, 6.9323, 1e-4);
  checker.CheckStationarity(view, ReportAtConsumerPrice(config, 2, walk));
  EXPECT_EQ(checker.violation_count(), 1u);
}

TEST(InvariantCheckerTest, RegretMonotonicityViolationIsDetected) {
  BrokenScenario s;
  Settle(s, 0.0);
  s.view.oracle_round_revenue = 1.0;
  s.report.expected_quality_revenue = 2.0;  // "beats" the oracle: impossible
  InvariantChecker checker;
  EXPECT_FALSE(checker.Check(s.view, s.report).ok());
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].check, "bandit.regret_monotone");
  EXPECT_NEAR(checker.violations()[0].magnitude, 1.0, 1e-9);
}

TEST(InvariantCheckerTest, NonMonotoneRoundNumbersAreDetected) {
  BrokenScenario s;
  Settle(s, 0.0);
  InvariantChecker checker;
  ASSERT_TRUE(checker.Check(s.view, s.report).ok());
  util::Status status = checker.Check(s.view, s.report);  // round 1 again
  ASSERT_FALSE(status.ok());
  bool found = false;
  for (const InvariantViolation& v : checker.violations()) {
    found = found || v.check == "round.monotone";
  }
  EXPECT_TRUE(found);
}

TEST(InvariantCheckerTest, MalformedReportShapeIsDetected) {
  BrokenScenario s;
  Settle(s, 0.0);
  s.report.tau.pop_back();  // selected/tau now disagree
  InvariantChecker checker;
  EXPECT_FALSE(checker.Check(s.view, s.report).ok());
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].check, "report.shape");
}

TEST(InvariantCheckerTest, ViolationRecordsTruncateAtTheCap) {
  BrokenScenario s;
  Settle(s, 0.5);  // skim: several ledger identities break at once
  InvariantOptions options;
  options.max_violations = 1;
  InvariantChecker checker(options);
  EXPECT_FALSE(checker.Check(s.view, s.report).ok());
  EXPECT_EQ(checker.violations().size(), 1u);
  EXPECT_GT(checker.violation_count(), 1u);
  EXPECT_TRUE(checker.violations_truncated());
}

TEST(InvariantViolationTest, ToStringCarriesTheRecord) {
  InvariantViolation v;
  v.kind = InvariantKind::kStationarity;
  v.round = 7;
  v.check = "stationarity.tau";
  v.detail = "seller 3 tau 1, best response 2";
  v.magnitude = 1.0;
  std::string text = v.ToString();
  EXPECT_NE(text.find("[Stationarity]"), std::string::npos);
  EXPECT_NE(text.find("round 7"), std::string::npos);
  EXPECT_NE(text.find("stationarity.tau"), std::string::npos);
}

// --- live-engine integration --------------------------------------------

TEST(InvariantCheckerEngineTest, CleanRunStaysViolationFree) {
  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 4;
  config.num_rounds = 40;
  config.seed = 11;
  ASSERT_TRUE(config.check_invariants);  // armed by default
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  util::Status status = run.value()->RunAll();
  EXPECT_TRUE(status.ok()) << status.ToString();
  const InvariantChecker* checker =
      run.value()->engine().invariant_checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_EQ(checker->violation_count(), 0u);
}

TEST(InvariantCheckerEngineTest, DisarmedEngineInstallsNoChecker) {
  core::MechanismConfig config;
  config.num_sellers = 6;
  config.num_selected = 2;
  config.num_pois = 2;
  config.num_rounds = 5;
  config.check_invariants = false;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value()->engine().invariant_checker(), nullptr);
  EXPECT_TRUE(run.value()->RunAll().ok());
}

// An observer that rejects a configured round, proving observer failures
// propagate out of RunRound, plus a counting observer for coverage of
// multiple observers on one engine.
class CountingObserver : public RoundObserver {
 public:
  util::Status OnRound(const TradingEngine&,
                       const RoundReport& report) override {
    ++rounds_;
    if (report.round == fail_round_) {
      return util::Status::Internal("observer rejected round");
    }
    return util::Status::OK();
  }

  void set_fail_round(std::int64_t round) { fail_round_ = round; }
  int rounds() const { return rounds_; }

 private:
  std::int64_t fail_round_ = -1;
  int rounds_ = 0;
};

TEST(InvariantCheckerEngineTest, CustomObserversSeeEveryRound) {
  EngineConfig config;
  config.job.num_pois = 3;
  config.job.num_rounds = 10;
  config.job.round_duration = 1000.0;
  config.job.description = "observer test";
  config.num_selected = 2;
  stats::Xoshiro256 rng(5);
  for (int i = 0; i < 6; ++i) {
    config.seller_costs.push_back(
        {rng.NextDouble(0.1, 0.5), rng.NextDouble(0.1, 1.0)});
  }
  config.platform_cost = {0.1, 1.0};
  config.valuation = {1000.0};
  config.consumer_price_bounds = {0.01, 100.0};
  config.collection_price_bounds = {0.01, 5.0};

  bandit::EnvironmentConfig env_config;
  env_config.num_sellers = 6;
  env_config.num_pois = 3;
  env_config.seed = 3;
  auto env = bandit::QualityEnvironment::Create(env_config);
  ASSERT_TRUE(env.ok());
  bandit::CucbOptions options;
  options.num_sellers = 6;
  options.num_selected = 2;
  auto policy = bandit::CucbPolicy::Create(options);
  ASSERT_TRUE(policy.ok());

  auto engine = TradingEngine::Create(
      config, &env.value(),
      std::make_unique<bandit::CucbPolicy>(std::move(policy).value()));
  ASSERT_TRUE(engine.ok());
  auto counting = std::make_unique<CountingObserver>();
  auto* counter = static_cast<CountingObserver*>(
      engine.value()->AddObserver(std::move(counting)));
  counter->set_fail_round(4);

  util::Status status = engine.value()->RunAll();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("observer rejected round"),
            std::string::npos);
  EXPECT_EQ(counter->rounds(), 4);  // rounds 1..4, aborted at 4
}

}  // namespace
}  // namespace market
}  // namespace cdt
