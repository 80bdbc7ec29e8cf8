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
#include "market/ledger.h"

namespace cdt {
namespace market {

/// Everything TradingEngine::RestoreSnapshot needs to resume a campaign
/// bit-for-bit after the round `next_round - 1` settled.
struct EngineSnapshot {
  // --- round cursor / budget ------------------------------------------
  std::int64_t next_round = 1;
  bool budget_exhausted = false;
  double consumer_spend = 0.0;

  // --- learning state --------------------------------------------------
  /// The engine's pricing estimates (Eqs. 17-18). When the engine prices
  /// from the policy's bank (CUCB) this duplicates policy_arms, and
  /// RestoreSnapshot refuses a snapshot whose two copies differ.
  std::vector<bandit::ArmState> pricing_arms;
  std::uint64_t pricing_total_observations = 0;
  /// The selection policy's estimator bank, when it maintains one.
  bool has_policy_arms = false;
  std::vector<bandit::ArmState> policy_arms;
  std::uint64_t policy_total_observations = 0;

  // --- accounting ------------------------------------------------------
  /// Per-slot balances (consumer, platform, sellers — size M+2).
  std::vector<double> ledger_balances;
  double ledger_consumer_outflow = 0.0;
  double ledger_seller_inflow = 0.0;
  /// Transfer history; empty when the ledger maintains balances only.
  std::vector<Transfer> ledger_transfers;

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
