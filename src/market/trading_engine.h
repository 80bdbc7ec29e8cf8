// The CDT trading engine: executes the full Fig.-2 workflow / Algorithm 1
// round by round — seller selection via a pluggable bandit policy, the HS
// game for the incentive strategy, data collection against the quality
// environment, aggregation, payments, and quality-estimate updates.

#ifndef CDT_MARKET_TRADING_ENGINE_H_
#define CDT_MARKET_TRADING_ENGINE_H_

#include <array>
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

  util::Status Validate(int num_sellers) const;
};

/// The collect stage's buffers, reused round to round so the stage makes
/// no per-seller allocation in steady state.
struct CollectBuffers {
  /// One batch vector per coalition member: rows[j] holds member j's L
  /// draws. Rows past the coalition stay allocated for later rounds, but
  /// the engine drops all of them after a select-all round.
  std::vector<std::vector<double>> rows;
  /// Sellers whose batch passed validation and their batches, in coalition
  /// order: the pair SelectionPolicy::Observe takes. The n accepted batches
  /// are moved out of rows, whose moved-from vectors sit in rows[0, n).
  std::vector<int> learners;
  std::vector<std::vector<double>> batches;

  /// Moves the batches back into rows[0, n) once they have been read, so
  /// every vector keeps its capacity.
  void Recycle();
};

/// Algorithm 1's collection step for the settled round `report->round`:
/// every member of `report->selected` senses its L PoIs. A batch the injector corrupts (its
/// `fault_draws[j]`, read only when `injector` is non-null) or that fails
/// ValidObservationBatch is rejected: a kCorruptedReport fault is recorded
/// and logged. An accepted batch adds to the report's observed and expected
/// quality revenue, records a delivery and joins `buffers`' learners and
/// batches.
///
/// Three passes over the coalition: first every member's tracker and
/// environment rows are prefetched, then every batch is drawn in one
/// ObserveSellersInto, then each member's batch is judged and accounted in
/// coalition order. The misses of one member's rows so overlap the others',
/// instead of each waiting behind the previous member's RNG chain. Draws,
/// fault log and tracker state are those of the one-pass loop (kept as the
/// test oracle testsupport::ReferenceCollectCoalition).
void CollectCoalition(const FaultInjector* injector,
                      const std::vector<SellerFaultDraw>& fault_draws,
                      bandit::QualityEnvironment* environment,
                      ReliabilityTracker* tracker, RoundReport* report,
                      CollectBuffers* buffers);

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
  /// the next round's reward (budget_exhausted() then reports true). That
  /// stop ends the run, so it first runs AuditInvariants(), whose Internal
  /// status replaces the FailedPrecondition when the audit fails.
  util::Result<RoundReport> RunRound();

  /// True when a configured consumer budget stopped the trading early.
  bool budget_exhausted() const { return budget_exhausted_; }

  std::int64_t current_round() const { return next_round_ - 1; }
  const EngineConfig& config() const { return config_; }
  /// The one record of money; its ConsumerOutflow() is the consumer's
  /// cumulative reward payments, which the budget gate reads.
  const Ledger& ledger() const { return ledger_; }
  const bandit::SelectionPolicy& policy() const { return *policy_; }
  const bandit::QualityEnvironment& environment() const {
    return *environment_;
  }

  /// The learned quality estimates (Eqs. 17-18) the HS game prices from.
  /// Under a policy with a non-null estimator() this is the policy's own
  /// bank, so &pricing_estimates() == policy().estimator(); a policy
  /// without one (random, oracle, the non-stationary UCBs) gets a private
  /// bank the engine feeds the round's batches itself.
  const bandit::EstimatorBank& pricing_estimates() const { return *bank_; }

  /// Registers an observer invoked after every settled round, in
  /// registration order; a non-OK status aborts the run. Returns a
  /// non-owning pointer for later inspection.
  RoundObserver* AddObserver(std::unique_ptr<RoundObserver> observer);

  /// The checker installed by check_invariants (nullptr when disarmed).
  const InvariantChecker* invariant_checker() const { return checker_; }

  /// What the last round's solve proved beside its prices, for the
  /// checker to verify; nullptr when the round's prices did not all come
  /// from one Solve (initial exploration, a re-settled round). Never
  /// persisted.
  const game::SolveProof* solve_proof() const {
    return proof_valid_ ? &solve_proof_ : nullptr;
  }

  /// Runs the installed checker's O(M) ledger audit (every seller's
  /// balance and the double-entry net position) against the ledger as it
  /// stands; OK when disarmed. Callers that capture a snapshot run it
  /// there, where O(M) is paid anyway, and whatever ends a run runs it
  /// then: the checker after the last round, RunRound at a budget stop,
  /// HostedMarketplace::FinishWal at an early close. The audit updates
  /// only the checker's violation record, never the engine.
  util::Status AuditInvariants() const;

  /// Oracle per-round expected revenue L · Σ_{S*} q (regret baseline).
  double oracle_round_revenue() const { return oracle_round_revenue_; }

  /// Per-seller reliability statistics and circuit-breaker state.
  const ReliabilityTracker& reliability() const { return reliability_; }

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

  /// Number of fault/recovery events of the given kind over the whole
  /// campaign (restored from a snapshot); each round's own events are its
  /// RoundReport::faults.
  std::int64_t fault_count(FaultKind kind) const {
    return fault_counts_[static_cast<std::size_t>(kind)];
  }

  /// Captures the engine's full mutable state (plus the borrowed
  /// environment's observation stream) after the last settled round, so a
  /// later RestoreSnapshot resumes the campaign bit-for-bit.
  EngineSnapshot CaptureSnapshot() const;

  /// The same state in place, for a checkpoint that encodes it without a
  /// copy (persist::WriteSnapshotFile): it encodes to CaptureSnapshot()'s
  /// bytes. Valid until the next round or state change.
  EngineSnapshotView SnapshotView() const;

  /// Applies a snapshot captured from an engine with identical
  /// configuration. Must be called before any round has run; fails closed
  /// when the policy cannot restore exactly (snapshot_safe() false), when
  /// the engine prices from the policy's bank but the policy's
  /// mutable_estimator() is not that bank, on any size/seller-count
  /// mismatch, or on corrupt counters — the engine is left untouched on
  /// error except when a late sub-restore fails (the returned status then
  /// says the engine must be discarded).
  util::Status RestoreSnapshot(const EngineSnapshot& snapshot);

 private:
  TradingEngine(EngineConfig config, bandit::QualityEnvironment* environment,
                std::unique_ptr<bandit::SelectionPolicy> policy);

  /// Learned (or true, in oracle mode) quality of a seller, floored.
  double GameQuality(int seller) const;

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
  /// Pricing bank: the policy's estimator() when it has one, else
  /// owned_bank_, which exists only then.
  const bandit::EstimatorBank* bank_ = nullptr;
  std::unique_ptr<bandit::EstimatorBank> owned_bank_;
  Ledger ledger_;
  std::vector<std::unique_ptr<RoundObserver>> observers_;
  InvariantChecker* checker_ = nullptr;  // owned via observers_
  double oracle_round_revenue_ = 0.0;
  std::int64_t next_round_ = 1;
  bool budget_exhausted_ = false;

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
  /// The last Solve's proof, valid while the round's prices are its.
  game::SolveProof solve_proof_;
  bool proof_valid_ = false;
  /// Selection scratch handed to SelectionPolicy::SelectRoundInto, and the
  /// collect-stage buffers (CollectCoalition). Both are released after a
  /// round whose coalition exceeds K (Algorithm 1's select-all round 1),
  /// so they keep a K-sized coalition's capacity, not M's.
  std::vector<int> selected_scratch_;
  CollectBuffers collect_;

  /// Non-null only when the config's fault profile is armed.
  std::unique_ptr<FaultInjector> injector_;
  ReliabilityTracker reliability_;
  std::array<std::int64_t, kNumFaultKinds> fault_counts_{};
};

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_TRADING_ENGINE_H_
