// End-to-end integration tests: trace pipeline → mechanism → market,
// cross-module invariants (equilibrium per round, money conservation,
// regret ordering, Theorem-19 bound) on realistic small instances.

#include <cmath>

#include <gtest/gtest.h>

#include "bandit/regret.h"
#include "core/cmab_hs.h"
#include "core/comparison.h"
#include "game/equilibrium.h"
#include "support/transfer_trail.h"
#include "trace/generator.h"
#include "trace/poi.h"
#include "trace/seller_mapping.h"

namespace cdt {
namespace {

TEST(IntegrationTest, TraceToMechanismPipeline) {
  // Build the paper's setup end to end: synthesize the taxi trace, extract
  // L=10 PoIs, derive the seller pool, and run a CDT simulation over it.
  trace::TraceConfig trace_config;
  trace_config.num_records = 8000;
  trace_config.seed = 41;
  auto tr = trace::GenerateTrace(trace_config);
  ASSERT_TRUE(tr.ok());
  auto pois = trace::ExtractPois(tr.value(), 10);
  ASSERT_TRUE(pois.ok());
  auto eligible = trace::MapSellers(tr.value(), pois.value());
  ASSERT_TRUE(eligible.ok());
  auto pool = trace::SelectSellerPool(eligible.value(), 50);
  ASSERT_TRUE(pool.ok());

  core::MechanismConfig config;
  config.num_sellers = static_cast<int>(pool.value().size());
  config.num_selected = 5;
  config.num_pois = 10;
  config.num_rounds = 100;
  config.seed = trace_config.seed;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run.value()->RunAll().ok());
  EXPECT_EQ(run.value()->metrics().rounds(), 100);
  EXPECT_GT(run.value()->metrics().expected_revenue(), 0.0);
}

TEST(IntegrationTest, EveryRoundProfileIsStackelbergEquilibrium) {
  core::MechanismConfig config;
  config.num_sellers = 12;
  config.num_selected = 3;
  config.num_pois = 4;
  config.num_rounds = 25;
  config.seed = 17;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());

  int checked = 0;
  ASSERT_TRUE(
      run.value()
          ->RunAll([&](const market::RoundReport& report) {
            if (report.initial_exploration) return;
            // Rebuild the round's game and verify Def. 13 at the reported
            // strategies.
            game::GameConfig game_config;
            const auto& engine = run.value()->engine();
            for (int i : report.selected) {
              game_config.sellers.push_back(
                  engine.config().seller_costs[static_cast<std::size_t>(i)]);
            }
            // The exact estimates the round was priced with (pre-update).
            game_config.qualities = report.game_qualities;
            game_config.platform = engine.config().platform_cost;
            game_config.valuation = engine.config().valuation;
            game_config.consumer_price_bounds =
                engine.config().consumer_price_bounds;
            game_config.collection_price_bounds =
                engine.config().collection_price_bounds;
            game_config.max_sensing_time =
                engine.config().job.round_duration;
            auto solver =
                game::StackelbergSolver::Create(std::move(game_config));
            ASSERT_TRUE(solver.ok());
            game::StrategyProfile profile = solver.value().EvaluateProfile(
                report.consumer_price, report.collection_price, report.tau);
            auto eq = game::CheckEquilibrium(solver.value(), profile);
            ASSERT_TRUE(eq.ok());
            EXPECT_TRUE(eq.value().is_equilibrium)
                << "round " << report.round << " deviator "
                << eq.value().worst_deviator << " gain "
                << eq.value().max_violation;
            ++checked;
          })
          .ok());
  EXPECT_GE(checked, 20);
}

TEST(IntegrationTest, RegretOrderingAcrossAlgorithms) {
  core::MechanismConfig config;
  config.num_sellers = 30;
  config.num_selected = 5;
  config.num_pois = 5;
  config.num_rounds = 1500;
  config.seed = 23;
  auto result = core::RunComparison(config, {});
  ASSERT_TRUE(result.ok());

  double regret_optimal = -1, regret_cmab = -1, regret_random = -1;
  for (const auto& algo : result.value().algorithms) {
    if (algo.name == "optimal") regret_optimal = algo.regret;
    if (algo.name == "cmab-hs") regret_cmab = algo.regret;
    if (algo.name == "random") regret_random = algo.regret;
  }
  EXPECT_NEAR(regret_optimal, 0.0, 1e-6);
  EXPECT_LT(regret_cmab, regret_random);
  // Theorem 19: CMAB-HS regret below the analytic bound.
  EXPECT_LT(regret_cmab, result.value().theorem19_bound);
}

TEST(IntegrationTest, DeltaProfitsShrinkWithMoreRounds) {
  // Δ-PoC decreases as N grows (Fig. 8's headline trend), averaged over
  // the exploitation phase.
  core::MechanismConfig config;
  config.num_sellers = 20;
  config.num_selected = 4;
  config.num_pois = 5;
  config.seed = 31;

  auto delta_at = [&](std::int64_t rounds) {
    config.num_rounds = rounds;
    auto result = core::RunComparison(config, {});
    EXPECT_TRUE(result.ok());
    for (const auto& algo : result.value().algorithms) {
      if (algo.name == "cmab-hs") return algo.delta_consumer;
    }
    return -1.0;
  };
  double small_n = delta_at(100);
  double large_n = delta_at(3000);
  EXPECT_LT(large_n, small_n);
}

TEST(IntegrationTest, MoneyConservationOverFullRun) {
  core::MechanismConfig config;
  config.num_sellers = 10;
  config.num_selected = 3;
  config.num_pois = 3;
  config.num_rounds = 50;
  config.seed = 5;
  auto run = core::CmabHs::Create(config);
  ASSERT_TRUE(run.ok());
  testsupport::TransferTrail trail(config.num_sellers);
  ASSERT_TRUE(run.value()
                  ->RunAll([&](const market::RoundReport& report) {
                    trail.AddRound(report);
                  })
                  .ok());
  const market::Ledger& ledger = run.value()->engine().ledger();
  EXPECT_NEAR(ledger.NetPosition(), 0.0, 1e-6);
  EXPECT_EQ(trail.transfers().size(),
            50u /*reward rows*/ + 49u * 3u + 10u /*round-1 payouts*/);
  EXPECT_EQ(trail.Mismatch(ledger), "");
}

}  // namespace
}  // namespace cdt
