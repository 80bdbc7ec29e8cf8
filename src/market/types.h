// Shared market-layer types: the data-collection Job (Def. 1) and the
// per-round trading report emitted by the engine.

#ifndef CDT_MARKET_TYPES_H_
#define CDT_MARKET_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "market/faults.h"
#include "util/status.h"

namespace cdt {
namespace market {

/// The consumer's long-term data-collection job Job = <L, N, T, Des>.
struct Job {
  int num_pois = 0;            // |L|
  std::int64_t num_rounds = 0; // N
  double round_duration = 0.0; // T
  std::string description;     // Des

  util::Status Validate() const;
};

/// Everything that happened in one trading round.
struct RoundReport {
  std::int64_t round = 0;  // 1-based
  /// True for Algorithm 1's round-1 select-all exploration.
  bool initial_exploration = false;

  std::vector<int> selected;          // selected seller indices
  /// Quality estimates q̄_i the round's game was priced with (pre-update).
  std::vector<double> game_qualities;
  double consumer_price = 0.0;        // p^{J,t}
  double collection_price = 0.0;      // p^t
  std::vector<double> tau;            // τ_i per selected seller
  double total_time = 0.0;            // Στ

  double consumer_profit = 0.0;             // Φ^t
  double platform_profit = 0.0;             // Ω^t
  std::vector<double> seller_profits;       // Ψ_i^t per selected seller
  double seller_profit_total = 0.0;         // Σ Ψ_i^t

  /// L · Σ_{i∈S} q_i using ground-truth expected qualities.
  double expected_quality_revenue = 0.0;
  /// Σ_{i∈S} Σ_l q_{i,l}^t actually observed.
  double observed_quality_revenue = 0.0;

  // --- Fault / recovery metadata (all defaults = clean round) ---------
  /// True when any fault rewrote the round (re-settlement, partial
  /// delivery, void). Clean rounds are bit-for-bit unaffected.
  bool degraded = false;
  /// True when defaults shrank the coalition and Stage 2/3 were re-solved
  /// over the survivors at the committed consumer price.
  bool resettled = false;
  /// True when nothing could be delivered or settled: tau is all zeros,
  /// no payments flowed, and the bandit state was left untouched.
  bool voided = false;
  /// Stage-3 best responses τ* the round contracted for; populated only
  /// when it differs from `tau` (partial delivery or a voided round).
  std::vector<double> contracted_tau;
  /// Structured fault/recovery events of this round.
  std::vector<FaultEvent> faults;
  /// Settlement attempts (1 = clean) and total simulated backoff spent.
  int settlement_attempts = 1;
  double settlement_backoff = 0.0;

  /// Number of `faults` entries of the given kind.
  int CountFaults(FaultKind kind) const;
};

/// Sellers whose data was actually accepted this round: the selected
/// coalition minus corrupted reporters, or nobody for a voided round.
/// (Defaulters are already absent from `selected` after re-settlement.)
std::vector<int> DeliveredDataSellers(const RoundReport& report);

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_TYPES_H_
