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
#include <span>
#include <vector>

#include "bandit/arm.h"
#include "bandit/environment.h"
#include "market/faults.h"
#include "util/strided_span.h"

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

/// An EngineSnapshot's fields where they live, for encoding without a
/// copy: TradingEngine::SnapshotView reads them from the live engine (the
/// bank's columns, the tracker's rows, the environment's sampler rows), and
/// a captured EngineSnapshot converts implicitly. Valid until the viewed
/// state next changes.
struct EngineSnapshotView {
  std::int64_t next_round = 1;
  bool budget_exhausted = false;

  /// pricing_arms, column by column (both the same size).
  util::StridedSpan<std::uint64_t> arm_observations;
  util::StridedSpan<double> arm_means;
  std::uint64_t pricing_total_observations = 0;

  std::span<const double> ledger_balances;
  double ledger_consumer_outflow = 0.0;
  double ledger_seller_inflow = 0.0;

  std::span<const SellerReliability> reliability;
  std::int64_t reliability_total_faults = 0;
  std::array<std::int64_t, kNumFaultKinds> fault_counts{};

  bandit::EnvironmentStateView environment;

  std::span<const std::uint8_t> seller_active;

  EngineSnapshotView() = default;
  EngineSnapshotView(const EngineSnapshot& snapshot)  // NOLINT
      : next_round(snapshot.next_round),
        budget_exhausted(snapshot.budget_exhausted),
        pricing_total_observations(snapshot.pricing_total_observations),
        ledger_balances(snapshot.ledger_balances),
        ledger_consumer_outflow(snapshot.ledger_consumer_outflow),
        ledger_seller_inflow(snapshot.ledger_seller_inflow),
        reliability(snapshot.reliability),
        reliability_total_faults(snapshot.reliability_total_faults),
        fault_counts(snapshot.fault_counts),
        environment(snapshot.environment),
        seller_active(snapshot.seller_active) {
    const std::vector<bandit::ArmState>& arms = snapshot.pricing_arms;
    if (arms.empty()) return;
    const std::size_t stride = sizeof(bandit::ArmState);
    arm_observations = util::StridedSpan<std::uint64_t>(
        &arms.front().observations, arms.size(), stride);
    arm_means =
        util::StridedSpan<double>(&arms.front().mean, arms.size(), stride);
  }
};

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_SNAPSHOT_H_
