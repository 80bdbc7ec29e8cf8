// Top-level mechanism configuration. Defaults reproduce Table II of the
// paper: M=300, K=10, L=10, N=1e5, a_i∈[0.1,0.5], b_i∈[0.1,1], θ=0.1, λ=1,
// ω=1000, qualities uniform in [0,1] with truncated-Gaussian observations.

#ifndef CDT_CORE_CONFIG_H_
#define CDT_CORE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "bandit/environment.h"
#include "game/cost.h"
#include "market/trading_engine.h"
#include "util/status.h"

namespace cdt {
namespace core {

/// Everything needed to instantiate one CDT simulation.
struct MechanismConfig {
  // --- scale (Table II) ---
  int num_sellers = 300;            // M
  int num_selected = 10;            // K
  int num_pois = 10;                // L
  std::int64_t num_rounds = 100000; // N

  // --- quality environment ---
  double observation_stddev = 0.1;
  double quality_lo = 0.0;
  double quality_hi = 1.0;

  // --- economics (Table II) ---
  double seller_a_lo = 0.1, seller_a_hi = 0.5;  // a_i range
  double seller_b_lo = 0.1, seller_b_hi = 1.0;  // b_i range
  double theta = 0.1;                           // θ
  double lambda = 1.0;                          // λ
  double omega = 1000.0;                        // ω
  double consumer_price_min = 0.01, consumer_price_max = 100.0;
  double collection_price_min = 0.01, collection_price_max = 5.0;
  double round_duration = 1000.0;               // T (non-binding by default)
  double initial_tau = 1.0;                     // τ^0 for round-1 exploration

  // --- mechanism knobs ---
  /// UCB exploration constant; <= 0 means the paper's (K+1).
  double exploration = 0.0;
  /// Algorithm 1's round-1 select-all initial exploration.
  bool select_all_first_round = true;
  double quality_floor = 1e-3;
  bool track_transfers = false;
  /// Arm the per-round economic-invariant checker (ledger conservation,
  /// individual rationality, stationarity, bandit sanity). Defaults on so
  /// tests and examples always run under the net; the benchmark harnesses
  /// disable it for Release sweeps.
  bool check_invariants = true;
  /// Budget extension: 0 = unlimited (the paper's setting); > 0 stops the
  /// campaign once the consumer's cumulative reward payments reach it.
  double consumer_budget = 0.0;
  /// Fault injection (all rates zero, the default, disables it entirely;
  /// the injector seed derives from the master seed unless overridden).
  market::FaultProfile faults;
  /// Settlement retry/backoff and quarantine circuit-breaker knobs.
  market::RecoveryOptions recovery;

  /// Master seed; derives the quality, observation and policy streams.
  std::uint64_t seed = 42;

  util::Status Validate() const;

  /// Derived: the bandit environment configuration.
  bandit::EnvironmentConfig MakeEnvironmentConfig() const;

  /// Derived: per-seller cost parameters drawn deterministically from the
  /// master seed (independent of the quality stream).
  std::vector<game::SellerCostParams> MakeSellerCosts() const;

  /// Derived: the trading-engine configuration (seller costs included).
  market::EngineConfig MakeEngineConfig() const;
};

}  // namespace core
}  // namespace cdt

#endif  // CDT_CORE_CONFIG_H_
