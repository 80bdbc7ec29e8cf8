// Engine snapshots: the full mutable state of a TradingEngine mid-campaign
// — bandit learning state, ledger, reliability breaker state, budget and
// round cursor, plus the environment's observation-stream state — so a
// persisted run can restore as `snapshot + tail-replay` instead of
// replaying from round 1. Captured/applied by TradingEngine, serialized by
// src/persist/ (see docs/PERSISTENCE.md).

#ifndef CDT_MARKET_SNAPSHOT_H_
#define CDT_MARKET_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "bandit/arm.h"
#include "bandit/environment.h"
#include "market/faults.h"

namespace cdt {
namespace market {

/// Everything TradingEngine::RestoreSnapshot needs to resume a campaign
/// bit-for-bit after the round `next_round - 1` settled.
struct EngineSnapshot {
  // --- round cursor / budget ------------------------------------------
  std::int64_t next_round = 1;
  bool budget_exhausted = false;

  // --- learning state --------------------------------------------------
  /// The one Eq. (17)-(18) bank the engine prices from
  /// (TradingEngine::pricing_estimates): the policy's own bank when it has
  /// one, else the engine's private bank. The policy's selection reads the
  /// same arms, so they are stored once.
  std::vector<bandit::ArmState> pricing_arms;
  std::uint64_t pricing_total_observations = 0;

  // --- accounting ------------------------------------------------------
  /// Per-slot balances (consumer, platform, sellers — size M+2).
  std::vector<double> ledger_balances;
  double ledger_consumer_outflow = 0.0;
  double ledger_seller_inflow = 0.0;

  // --- reliability / fault accounting ---------------------------------
  std::vector<SellerReliability> reliability;
  std::int64_t reliability_total_faults = 0;
  std::array<std::int64_t, kNumFaultKinds> fault_counts{};

  // --- observation stream ----------------------------------------------
  bandit::EnvironmentState environment;

  // --- seller-departure overlay ----------------------------------------
  /// TradingEngine::SetSellerActive bitmap (1 = active). Empty means every
  /// seller is active — the serialized form then appends nothing, keeping
  /// pre-overlay snapshots byte-compatible.
  std::vector<std::uint8_t> seller_active;
};

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_SNAPSHOT_H_
