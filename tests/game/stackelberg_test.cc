#include "game/stackelberg.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "game/numeric.h"
#include "stats/rng.h"

namespace cdt {
namespace game {
namespace {

// A small deterministic game with paper-scale parameters (Table II ranges).
GameConfig PaperishConfig(int k = 10, std::uint64_t seed = 1) {
  stats::Xoshiro256 rng(seed);
  GameConfig config;
  for (int i = 0; i < k; ++i) {
    SellerCostParams s;
    s.a = rng.NextDouble(0.1, 0.5);
    s.b = rng.NextDouble(0.1, 1.0);
    config.sellers.push_back(s);
    config.qualities.push_back(rng.NextDouble(0.05, 1.0));
  }
  config.platform = {0.1, 1.0};
  config.valuation = {1000.0};
  config.consumer_price_bounds = {0.01, 1e5};
  config.collection_price_bounds = {0.01, 1e5};
  return config;
}

TEST(GameConfigTest, Validation) {
  GameConfig config = PaperishConfig(3);
  EXPECT_TRUE(config.Validate().ok());

  GameConfig bad = config;
  bad.qualities[0] = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.qualities.pop_back();
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.sellers[0].a = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.valuation.omega = 0.9;
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.consumer_price_bounds = {5.0, 1.0};
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.max_sensing_time = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.sellers.clear();
  bad.qualities.clear();
  EXPECT_FALSE(bad.Validate().ok());

  // Non-finite inputs must be rejected before they reach the closed forms
  // (Thm 14-16 divide by q̄·a and the ω-dependent discriminant), otherwise
  // a corrupted estimate would propagate NaN prices into settlement.
  bad = config;
  bad.qualities[0] = std::nan("");
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.qualities[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.sellers[0].a = std::nan("");
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.sellers[0].b = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.platform.theta = std::nan("");
  EXPECT_FALSE(bad.Validate().ok());

  bad = config;
  bad.valuation.omega = std::nan("");
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(AggregatesTest, MatchTheorem15Definitions) {
  GameConfig config;
  config.sellers = {{0.2, 0.4}, {0.5, 1.0}};
  config.qualities = {0.5, 0.8};
  config.platform = {0.1, 1.0};
  config.valuation = {100.0};
  ASSERT_TRUE(config.Validate().ok());
  Aggregates agg = ComputeAggregates(config);
  double a_expected = 1.0 / (2 * 0.5 * 0.2) + 1.0 / (2 * 0.8 * 0.5);
  double b_expected = 0.4 / (2 * 0.2) + 1.0 / (2 * 0.5);
  EXPECT_NEAR(agg.a_sum, a_expected, 1e-12);
  EXPECT_NEAR(agg.b_sum, b_expected, 1e-12);
  EXPECT_NEAR(agg.mean_quality, 0.65, 1e-12);
  EXPECT_NEAR(agg.theta_coef,
              a_expected / (2.0 * (1.0 + 0.1 * a_expected)), 1e-12);
}

TEST(StackelbergTest, SellerBestTimeMatchesEq20) {
  auto solver = StackelbergSolver::Create(PaperishConfig(5));
  ASSERT_TRUE(solver.ok());
  double p = 1.7;
  for (int i = 0; i < 5; ++i) {
    double q = solver.value().config().qualities[i];
    double a = solver.value().config().sellers[i].a;
    double b = solver.value().config().sellers[i].b;
    double expected = std::max(0.0, (p - q * b) / (2.0 * q * a));
    EXPECT_NEAR(solver.value().SellerBestTime(i, p), expected, 1e-12);
  }
}

TEST(StackelbergTest, SellerBestTimeClampsToZeroAndT) {
  GameConfig config = PaperishConfig(1);
  config.max_sensing_time = 0.5;
  auto solver = StackelbergSolver::Create(config);
  ASSERT_TRUE(solver.ok());
  EXPECT_DOUBLE_EQ(solver.value().SellerBestTime(0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(solver.value().SellerBestTime(0, 1e6), 0.5);
}

// ---- Numeric verification of every stage's closed form -------------------

TEST(StackelbergTest, SellerClosedFormIsNumericOptimum) {
  auto solver = StackelbergSolver::Create(PaperishConfig(6, 3));
  ASSERT_TRUE(solver.ok());
  double p = 2.3;
  for (int i = 0; i < 6; ++i) {
    const auto& config = solver.value().config();
    auto profit = [&](double tau) {
      return SellerProfit(p, tau, config.sellers[i], config.qualities[i]);
    };
    auto numeric = MaximizeOnInterval(profit, {0.0, 100.0}, 512);
    ASSERT_TRUE(numeric.ok());
    EXPECT_NEAR(solver.value().SellerBestTime(i, p),
                numeric.value().argmax, 1e-4);
  }
}

TEST(StackelbergTest, PlatformClosedFormIsNumericOptimum) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto solver = StackelbergSolver::Create(PaperishConfig(10, seed));
    ASSERT_TRUE(solver.ok());
    double pj = 12.0;
    auto profit = [&](double p) {
      return solver.value().PlatformProfitAnticipating(pj, p);
    };
    auto numeric = MaximizeOnInterval(profit, {0.01, 50.0}, 2048);
    ASSERT_TRUE(numeric.ok());
    double closed = solver.value().PlatformBestPrice(pj);
    EXPECT_NEAR(closed, numeric.value().argmax, 1e-3) << "seed " << seed;
    EXPECT_NEAR(profit(closed), numeric.value().max_value, 1e-6);
  }
}

TEST(StackelbergTest, ConsumerClosedFormIsNumericOptimum) {
  for (std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
    auto solver = StackelbergSolver::Create(PaperishConfig(10, seed));
    ASSERT_TRUE(solver.ok());
    auto profit = [&](double pj) {
      return solver.value().ConsumerProfitAnticipating(pj);
    };
    auto numeric = MaximizeOnInterval(profit, {0.01, 200.0}, 4096);
    ASSERT_TRUE(numeric.ok());
    double closed = solver.value().ConsumerBestPrice();
    EXPECT_NEAR(closed, numeric.value().argmax, 1e-2) << "seed " << seed;
    EXPECT_NEAR(profit(closed), numeric.value().max_value, 1e-5);
  }
}

// The paper's printed Theorem-15 constant (λA − 2θBA + B) is a typo: the
// derivative of Eq. (7) yields (λA − 2θAB − B). Stage 2 with the printed
// constant, from the solver's aggregates; unclamped.
double PlatformBestPricePaperPrinted(const StackelbergSolver& solver,
                                     double consumer_price) {
  double a = solver.aggregates().a_sum;
  double b = solver.aggregates().b_sum;
  double theta = solver.config().platform.theta;
  double lambda = solver.config().platform.lambda;
  double c = lambda * a - 2.0 * theta * b * a + b;  // printed Thm. 15 form
  return (consumer_price * a - c) / (2.0 * a * (1.0 + theta * a));
}

// Documents that the printed form yields strictly less platform profit.
TEST(StackelbergTest, PrintedThm15IsNotOptimal) {
  auto solver = StackelbergSolver::Create(PaperishConfig(10, 7));
  ASSERT_TRUE(solver.ok());
  double pj = 12.0;
  double corrected = solver.value().PlatformBestPrice(pj);
  double printed = PlatformBestPricePaperPrinted(solver.value(), pj);
  EXPECT_GT(std::fabs(corrected - printed), 1e-6);
  double profit_corrected =
      solver.value().PlatformProfitAnticipating(pj, corrected);
  double profit_printed =
      solver.value().PlatformProfitAnticipating(pj, printed);
  EXPECT_GT(profit_corrected, profit_printed + 1e-9);
}

TEST(StackelbergTest, InteriorFormulaMatchesExactSweepInInteriorRegime) {
  // With healthy qualities and a generous price box, no clamp binds and the
  // exact kink-sweep must coincide with the Theorem-15 interior formula.
  GameConfig config;
  stats::Xoshiro256 rng(31);
  for (int i = 0; i < 10; ++i) {
    config.sellers.push_back(
        {rng.NextDouble(0.1, 0.5), rng.NextDouble(0.1, 1.0)});
    config.qualities.push_back(rng.NextDouble(0.4, 1.0));  // healthy
  }
  config.platform = {0.1, 1.0};
  config.valuation = {1000.0};
  config.consumer_price_bounds = {0.01, 1e5};
  config.collection_price_bounds = {0.01, 1e5};
  auto solver = StackelbergSolver::Create(config);
  ASSERT_TRUE(solver.ok());
  for (double pj : {5.0, 10.0, 20.0, 40.0}) {
    double interior = solver.value().PlatformBestPriceInterior(pj);
    double exact = solver.value().PlatformBestPrice(pj);
    if (interior > 1.0) {  // every activation threshold q·b <= 1
      EXPECT_NEAR(interior, exact, 1e-9) << "pj=" << pj;
    }
  }
}

TEST(StackelbergTest, ExactSweepHandlesSaturationCap) {
  // Tiny T forces saturation: every seller pegs at T once p is high, and
  // the platform's best response must respect the capped supply curve.
  GameConfig config = PaperishConfig(5, 23);
  config.max_sensing_time = 0.25;
  auto solver = StackelbergSolver::Create(config);
  ASSERT_TRUE(solver.ok());
  double pj = 15.0;
  double exact = solver.value().PlatformBestPrice(pj);
  auto profit = [&](double p) {
    return solver.value().PlatformProfitAnticipating(pj, p);
  };
  auto numeric = MaximizeOnInterval(profit, {0.01, 50.0}, 4096);
  ASSERT_TRUE(numeric.ok());
  EXPECT_NEAR(profit(exact), numeric.value().max_value, 1e-6);
  // And the resulting times actually clamp at T.
  for (double tau : solver.value().SellerBestTimes(50.0)) {
    EXPECT_DOUBLE_EQ(tau, 0.25);
  }
}

TEST(StackelbergTest, SolveProducesConsistentProfile) {
  auto solver = StackelbergSolver::Create(PaperishConfig(10, 11));
  ASSERT_TRUE(solver.ok());
  StrategyProfile profile = solver.value().Solve();
  EXPECT_EQ(profile.tau.size(), 10u);
  EXPECT_GT(profile.total_time, 0.0);
  EXPECT_GT(profile.consumer_price, profile.collection_price);
  // Profile totals agree with EvaluateProfile re-evaluation.
  StrategyProfile re = solver.value().EvaluateProfile(
      profile.consumer_price, profile.collection_price, profile.tau);
  EXPECT_NEAR(re.consumer_profit, profile.consumer_profit, 1e-9);
  EXPECT_NEAR(re.platform_profit, profile.platform_profit, 1e-9);
}

TEST(StackelbergTest, AllPartiesProfitAtEquilibrium) {
  // Under paper-scale parameters everyone should participate gainfully.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto solver = StackelbergSolver::Create(PaperishConfig(10, seed));
    ASSERT_TRUE(solver.ok());
    StrategyProfile profile = solver.value().Solve();
    EXPECT_GT(profile.consumer_profit, 0.0) << "seed " << seed;
    EXPECT_GT(profile.platform_profit, 0.0) << "seed " << seed;
    for (double psi : profile.seller_profits) {
      EXPECT_GE(psi, -1e-9) << "seed " << seed;
    }
  }
}

TEST(StackelbergTest, ConsumerPriceClampsToBox) {
  GameConfig config = PaperishConfig(10, 13);
  auto unbounded = StackelbergSolver::Create(config);
  ASSERT_TRUE(unbounded.ok());
  double interior = unbounded.value().ConsumerBestPrice();

  config.consumer_price_bounds = {0.01, interior * 0.5};
  auto clamped = StackelbergSolver::Create(config);
  ASSERT_TRUE(clamped.ok());
  EXPECT_DOUBLE_EQ(clamped.value().ConsumerBestPrice(), interior * 0.5);
}

// Round 1728 of the paper-default campaign (core::MechanismConfig defaults,
// seed 42): the selected sellers' cost parameters (MakeSellerCosts) and the
// game's learned qualities. Theorem 16's point passes the interior-regime
// test: its Theorem-15 price 0.781244 sits just above seller 7's activation
// at 0.780595. But Ω is not concave across that kink, and the platform
// does better at 0.779879 without seller 7, so the closed form's premise
// fails and the consumer's best price lies elsewhere.
GameConfig PaperRound1728() {
  GameConfig config;
  config.sellers = {{0.48034204151525628, 0.5212800570873658},
                    {0.41240584385327927, 0.46770334505544797},
                    {0.26836728052982278, 0.13658501509284277},
                    {0.34269733369881578, 0.52868015657581124},
                    {0.49087743811075901, 0.64237986021682891},
                    {0.15909001083277483, 0.57585923505926695},
                    {0.21253357307404844, 0.12353934041848953},
                    {0.24485492398401335, 0.85397603530287425},
                    {0.25188866323977482, 0.82430071086857148},
                    {0.10585649367206225, 0.26410715914064031}};
  config.qualities = {0.2160942731622662,  0.71836136835548259,
                      0.48030257303996599, 0.89999535009960208,
                      0.87159493899578888, 0.8584740197649029,
                      0.76173214056743688, 0.91407113505091586,
                      0.8670932691611879,  0.10488846509208685};
  config.platform = {0.1, 1.0};
  config.valuation = {1000.0};
  config.consumer_price_bounds = {0.01, 100.0};
  config.collection_price_bounds = {0.01, 5.0};
  config.max_sensing_time = 1000.0;
  return config;
}

TEST(StackelbergTest, Theorem16PointNeedsItsPlatformResponse) {
  auto solver = StackelbergSolver::Create(PaperRound1728());
  ASSERT_TRUE(solver.ok());
  const StackelbergSolver& hs = solver.value();
  const double thm16 = hs.ConsumerBestPriceInterior();
  EXPECT_NEAR(thm16, 11.37788, 1e-5);
  // At Theorem 16's point the platform does not play Theorem 15's price.
  EXPECT_NEAR(hs.PlatformBestPriceInterior(thm16), 0.781244, 1e-6);
  EXPECT_NEAR(hs.PlatformBestPrice(thm16), 0.779879, 1e-6);
  EXPECT_NEAR(hs.ConsumerProfitAnticipating(thm16), 2922.359, 1e-3);
  // The consumer's best price (a 2e5-point grid agrees) earns ~0.96 more.
  const double pj = hs.ConsumerBestPrice();
  EXPECT_NEAR(pj, 11.3782, 1e-4);
  EXPECT_NEAR(hs.ConsumerProfitAnticipating(pj), 2923.316, 1e-3);
  EXPECT_EQ(hs.Solve().consumer_price, pj);
}

TEST(StackelbergTest, DeltaDiscriminantAlwaysPositive) {
  // Δ = (q̄Λ−2)² + 8Θωq̄² > 0, so ConsumerBestPrice is total. Fuzz it.
  stats::Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    GameConfig config = PaperishConfig(1 + static_cast<int>(
                                               rng.NextBounded(20)),
                                       rng.Next());
    config.platform.theta = rng.NextDouble(0.01, 2.0);
    config.platform.lambda = rng.NextDouble(0.0, 3.0);
    config.valuation.omega = rng.NextDouble(1.01, 2000.0);
    auto solver = StackelbergSolver::Create(config);
    ASSERT_TRUE(solver.ok());
    double pj = solver.value().ConsumerBestPrice();
    EXPECT_TRUE(std::isfinite(pj));
    StrategyProfile profile = solver.value().Solve();
    EXPECT_TRUE(std::isfinite(profile.consumer_profit));
    EXPECT_TRUE(std::isfinite(profile.platform_profit));
  }
}

// Parameterized sweep: the closed-form stage-1 optimum beats a dense grid
// of alternative consumer prices across K values.
class StackelbergSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(StackelbergSweepTest, ConsumerOptimumDominatesGrid) {
  int k = GetParam();
  auto solver = StackelbergSolver::Create(PaperishConfig(k, 17 + k));
  ASSERT_TRUE(solver.ok());
  double best_pj = solver.value().ConsumerBestPrice();
  double best_profit = solver.value().ConsumerProfitAnticipating(best_pj);
  for (int i = 1; i <= 400; ++i) {
    double pj = 0.1 * i;
    EXPECT_LE(solver.value().ConsumerProfitAnticipating(pj),
              best_profit + 1e-7)
        << "K=" << k << " pj=" << pj;
  }
}

INSTANTIATE_TEST_SUITE_P(VaryK, StackelbergSweepTest,
                         ::testing::Values(1, 2, 5, 10, 20, 40, 60));

}  // namespace
}  // namespace game
}  // namespace cdt
