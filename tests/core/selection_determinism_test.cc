// Determinism suite for the production selection path: a CMAB-HS engine
// selecting through CucbPolicy (SoA bank + grouped top-K, with kink reuse in
// the solver) and one selecting through the full-rescan oracle
// (testsupport::ReferenceCucbPolicy: Eq. 19 scan + partial_sort) run side
// by side on the fig07 and fig09 evaluation configs plus a 1e4-arm
// synthetic campaign. Every round's canonical bytes — selection, prices,
// sensing times, profits, revenues, faults — must match.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/config.h"
#include "persist/replay.h"
#include "support/reference_cucb.h"

namespace cdt {
namespace core {
namespace {

void ExpectBitIdentical(const MechanismConfig& config) {
  auto optimized = testsupport::MakeCucbEngine(config, /*reference=*/false);
  auto reference = testsupport::MakeCucbEngine(config, /*reference=*/true);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  market::TradingEngine& lhs = *optimized.value().engine;
  market::TradingEngine& rhs = *reference.value().engine;

  for (std::int64_t round = 1; round <= config.num_rounds; ++round) {
    auto a = lhs.RunRound();
    auto b = rhs.RunRound();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(persist::CanonicalRoundBytes(a.value()),
              persist::CanonicalRoundBytes(b.value()))
        << "round " << round;
  }
  // The learned state both engines price from ends identical too.
  const bandit::EstimatorBank& x = lhs.pricing_estimates();
  const bandit::EstimatorBank& y = rhs.pricing_estimates();
  ASSERT_EQ(x.total_observations(), y.total_observations());
  for (int i = 0; i < x.num_arms(); ++i) {
    ASSERT_EQ(x.arm(i), y.arm(i)) << "arm " << i;
  }
}

TEST(SelectionDeterminismTest, Fig07ConfigBothPathsBitIdentical) {
  // Fig. 7 shape: Table-II economics at reduced horizon.
  MechanismConfig config;
  config.num_sellers = 300;
  config.num_selected = 10;
  config.num_pois = 10;
  config.num_rounds = 400;
  config.seed = 7;
  ExpectBitIdentical(config);
}

TEST(SelectionDeterminismTest, Fig09ConfigBothPathsBitIdentical) {
  // Fig. 9 shape: larger pool, same K, different seed/horizon.
  MechanismConfig config;
  config.num_sellers = 500;
  config.num_selected = 10;
  config.num_pois = 10;
  config.num_rounds = 300;
  config.seed = 9;
  ExpectBitIdentical(config);
}

TEST(SelectionDeterminismTest, TenThousandArmSyntheticBitIdentical) {
  // Large-M synthetic: K ~ sqrt(M). Round 1 observes all 10^4 arms, so the
  // selector starts by rebuilding from the bank; the remaining
  // rounds exercise the steady-state incremental path. The checker is off
  // to keep the runtime down.
  MechanismConfig config;
  config.num_sellers = 10000;
  config.num_selected = 100;
  config.num_pois = 4;
  config.num_rounds = 25;
  config.seed = 10007;
  config.check_invariants = false;
  ExpectBitIdentical(config);
}

}  // namespace
}  // namespace core
}  // namespace cdt
