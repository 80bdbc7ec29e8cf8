// The CDT trading engine: executes the full Fig.-2 workflow / Algorithm 1
// round by round — seller selection via a pluggable bandit policy, the HS
// game for the incentive strategy, data collection against the quality
// environment, aggregation, payments, and quality-estimate updates.

#ifndef CDT_MARKET_TRADING_ENGINE_H_
#define CDT_MARKET_TRADING_ENGINE_H_

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "bandit/arm.h"
#include "bandit/environment.h"
#include "bandit/policy.h"
#include "game/stackelberg.h"
#include "market/faults.h"
#include "market/invariants.h"
#include "market/ledger.h"
#include "market/snapshot.h"
#include "market/types.h"

namespace cdt {
namespace market {

/// Engine configuration; economic defaults follow Table II.
struct EngineConfig {
  Job job;                       // L, N, T
  int num_selected = 0;          // K
  /// Per-seller cost parameters (size M).
  std::vector<game::SellerCostParams> seller_costs;
  game::PlatformCostParams platform_cost;   // θ, λ
  game::ValuationParams valuation;          // ω
  util::Interval consumer_price_bounds{1e-3, 1e9};
  util::Interval collection_price_bounds{1e-3, 1e9};
  /// τ^0: sensing time of every seller in the initial exploration round.
  double initial_tau = 1.0;
  /// Floor applied to learned qualities before the game (Eq. 20 divides by
  /// q̄_i a_i, so q̄ must stay strictly positive).
  double quality_floor = 1e-3;
  /// Oracle mode: price the game with the environment's true effective
  /// qualities instead of learned estimates (the "optimal" baseline).
  bool use_true_qualities_for_game = false;
  /// Consumer budget extension (0 = unlimited, the paper's setting): the
  /// trading stops before any round whose reward payment would push the
  /// consumer's cumulative outflow beyond the budget.
  double consumer_budget = 0.0;
  /// Record every monetary transfer in the ledger (memory ~ N·K; disable
  /// for large-N benchmark sweeps — balances are still maintained).
  bool track_transfers = false;
  /// Arm the economic-invariant checker: after every settled round an
  /// InvariantChecker verifies ledger conservation, individual rationality,
  /// Stackelberg stationarity and bandit sanity, and a violation aborts the
  /// run with a structured error. On by default so tests and examples run
  /// under the net; Release benchmark sweeps switch it off.
  bool check_invariants = true;
  /// Fault injection (all rates zero, the default, disables it). With a
  /// fault-free profile every round is bit-for-bit identical to an engine
  /// built without this field: the injector draws from its own hash-keyed
  /// stream and never touches the environment's RNG.
  FaultProfile faults;
  /// Graceful-degradation knobs: settlement retry/backoff schedule and the
  /// per-seller quarantine circuit breaker.
  RecoveryOptions recovery;
  /// Optional externally owned reliability tracker, e.g. shared with an
  /// AvailabilityAwareCucbPolicy through QuarantineAvailability so
  /// quarantined sellers are already excluded at selection time. Must
  /// outlive the engine and match the seller count; nullptr (default)
  /// makes the engine own its tracker.
  ReliabilityTracker* reliability = nullptr;

  util::Status Validate(int num_sellers) const;
};

/// Runs a CDT simulation: one QualityEnvironment (ground truth), one
/// SelectionPolicy (seller selection), and the HS game each round.
class TradingEngine {
 public:
  /// The engine borrows `environment` and owns `policy`. The environment's
  /// seller/PoI counts must match the config.
  static util::Result<std::unique_ptr<TradingEngine>> Create(
      EngineConfig config, bandit::QualityEnvironment* environment,
      std::unique_ptr<bandit::SelectionPolicy> policy);

  /// Executes the next round; call at most N times. With a consumer budget
  /// configured, fails with FailedPrecondition once the budget cannot cover
  /// the next round's reward (budget_exhausted() then reports true).
  util::Result<RoundReport> RunRound();

  /// True when a configured consumer budget stopped the trading early.
  bool budget_exhausted() const { return budget_exhausted_; }

  /// Cumulative rewards the consumer has paid so far.
  double consumer_spend() const { return consumer_spend_; }

  /// Runs all remaining rounds, invoking `callback` (may be null) per round.
  util::Status RunAll(
      const std::function<void(const RoundReport&)>& callback = nullptr);

  std::int64_t current_round() const { return next_round_ - 1; }
  const EngineConfig& config() const { return config_; }
  const Ledger& ledger() const { return ledger_; }
  const bandit::SelectionPolicy& policy() const { return *policy_; }
  const bandit::QualityEnvironment& environment() const {
    return *environment_;
  }

  /// The learned quality estimates the HS game prices from. Under a policy
  /// with a non-null mutable_estimator() (CUCB) this is the policy's own
  /// bank, so &pricing_estimates() == policy().estimator(); every other
  /// policy gets a private bank the engine updates itself.
  const bandit::EstimatorBank& pricing_estimates() const { return *bank_; }

  /// Registers an observer invoked after every settled round, in
  /// registration order; a non-OK status aborts the run. Returns a
  /// non-owning pointer for later inspection.
  RoundObserver* AddObserver(std::unique_ptr<RoundObserver> observer);

  /// The checker installed by check_invariants (nullptr when disarmed).
  const InvariantChecker* invariant_checker() const { return checker_; }

  /// Oracle per-round expected revenue L · Σ_{S*} q (regret baseline).
  double oracle_round_revenue() const { return oracle_round_revenue_; }

  /// Per-seller reliability statistics and circuit-breaker state.
  const ReliabilityTracker& reliability() const { return *reliability_; }

  /// Marks a seller as departed (active=false) or returned (active=true).
  /// Inactive sellers are dropped from every coalition at the quarantine
  /// gate — silently, they are not faults — until they return; the bandit
  /// keeps their learned state. Deterministic: the same call sequence at
  /// the same round cursors reproduces the same rounds, and the activity
  /// bitmap rides in EngineSnapshot so restores resume exactly. If
  /// deactivation would leave every seller inactive the call is refused
  /// (the engine degrades, it never deadlocks).
  util::Status SetSellerActive(int seller, bool active);

  /// False while the seller has departed via SetSellerActive.
  bool seller_active(int seller) const {
    return seller_active_.empty() ||
           seller_active_[static_cast<std::size_t>(seller)] != 0;
  }

  /// Number of currently departed sellers.
  int inactive_sellers() const { return inactive_count_; }

  /// Every fault/recovery event of the run, in round order.
  const std::vector<FaultEvent>& fault_log() const { return fault_log_; }

  /// Number of logged events of the given kind.
  std::int64_t fault_count(FaultKind kind) const {
    return fault_counts_[static_cast<std::size_t>(kind)];
  }

  /// Captures the engine's full mutable state (plus the borrowed
  /// environment's observation stream) after the last settled round, so a
  /// later RestoreSnapshot resumes the campaign bit-for-bit.
  EngineSnapshot CaptureSnapshot() const;

  /// Applies a snapshot captured from an engine with identical
  /// configuration. Must be called before any round has run; fails closed
  /// when the policy cannot restore exactly (snapshot_safe() false), on
  /// any size/seller-count mismatch, on corrupt counters, or when the
  /// engine prices from the policy's bank and the snapshot's pricing and
  /// policy sections disagree — the engine is left untouched on error
  /// except when a late sub-restore fails (the returned status then says
  /// the engine must be discarded).
  /// The cumulative fault_log() is not persisted: after a restore it
  /// contains only post-restore events (fault_count() totals survive).
  util::Status RestoreSnapshot(const EngineSnapshot& snapshot);

 private:
  TradingEngine(EngineConfig config, bandit::QualityEnvironment* environment,
                std::unique_ptr<bandit::SelectionPolicy> policy);

  /// Learned (or true, in oracle mode) quality of a seller, floored.
  double GameQuality(int seller) const;

  /// Appends a fault event to both the round report and the run log.
  void LogFault(RoundReport* report, FaultKind kind, int seller,
                double severity, bool recovered);

  /// Re-evaluates total time and all profits at the report's current
  /// (prices, tau) — used after recovery rewrote the round's strategies.
  void RecomputeProfits(RoundReport* report) const;

  /// Marks the round undeliverable: zero tau, zero flows, recomputed
  /// (zero) profits; every fault event of the round becomes unrecovered.
  void VoidRound(RoundReport* report);

  /// Settles payments for the round through the ledger.
  util::Status SettlePayments(const RoundReport& report);

  /// Points the reusable solve workspace at the coalition `selected` (cost
  /// parameters + current learned qualities) and returns the ready solver.
  /// The first call constructs the solver (full GameConfig::Validate);
  /// later calls re-target it via StackelbergSolver::ResetCoalition, which
  /// re-checks only the round-varying qualities and performs zero heap
  /// allocations in steady state. On error the workspace is untouched and
  /// the next call re-prepares from scratch.
  util::Result<const game::StackelbergSolver*> PrepareSolver(
      const std::vector<int>& selected);

  EngineConfig config_;
  bandit::QualityEnvironment* environment_;  // borrowed
  std::unique_ptr<bandit::SelectionPolicy> policy_;
  /// Pricing bank: the policy's (borrowed) or owned_bank_.
  bandit::EstimatorBank* bank_ = nullptr;
  std::unique_ptr<bandit::EstimatorBank> owned_bank_;
  Ledger ledger_;
  std::vector<std::unique_ptr<RoundObserver>> observers_;
  InvariantChecker* checker_ = nullptr;  // owned via observers_
  double oracle_round_revenue_ = 0.0;
  std::int64_t next_round_ = 1;
  bool budget_exhausted_ = false;
  double consumer_spend_ = 0.0;

  /// Seller-departure overlay (SetSellerActive). Lazily sized on first
  /// deactivation; empty means everyone is active (the common case adds
  /// no per-round work).
  std::vector<std::uint8_t> seller_active_;
  int inactive_count_ = 0;

  /// Solve workspace (PrepareSolver): coalition staging buffers and the
  /// round-reused solver. The buffers swap back and forth with the solver's
  /// config vectors, so both sides keep their capacity across rounds.
  std::vector<game::SellerCostParams> solve_sellers_;
  std::vector<double> solve_qualities_;
  std::optional<game::StackelbergSolver> solver_;
  /// Selection scratch handed to SelectionPolicy::SelectRoundInto.
  std::vector<int> selected_scratch_;
  /// Collection-stage scratches: accepted learner ids, their batches, and
  /// the recycled batch buffers. Batches move pool → batches → pool each
  /// round, so the inner buffers keep their capacity (no per-seller
  /// allocation in steady state).
  std::vector<int> learners_scratch_;
  std::vector<std::vector<double>> batches_scratch_;
  std::vector<std::vector<double>> batch_pool_;

  /// Non-null only when the config's fault profile is armed.
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<ReliabilityTracker> owned_reliability_;
  ReliabilityTracker* reliability_ = nullptr;  // owned or borrowed
  std::vector<FaultEvent> fault_log_;
  std::array<std::int64_t, kNumFaultKinds> fault_counts_{};
};

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_TRADING_ENGINE_H_
