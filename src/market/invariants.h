// Economic-invariant checking for the CDT trading pipeline.
//
// The Stackelberg equilibrium (Thms. 14-16) and Algorithm 1's payment flow
// imply hard invariants that must hold on *every* round of *every* run, not
// just in hand-picked test cases:
//
//   (a) ledger conservation — consumer outflow equals platform inflow,
//       platform inflow equals seller payments plus platform profit plus
//       the aggregation cost C^J (Eq. 8), and the double-entry net position
//       stays zero;
//   (b) individual rationality — every selected seller's realised profit
//       Ψ_i = p τ_i − C_i(τ_i, q̄_i) is non-negative (up to ε) at the
//       Stage-3 best response of Eq. (20);
//   (c) stationarity — the solved prices (p^{J*}, p*) satisfy the
//       first-order conditions of Eqs. (7)-(8) within tolerance when the
//       interior regime holds, and otherwise coincide with a re-solved
//       stage optimum (box-boundary / active-set cases);
//   (d) bandit sanity — UCB statistics finite, observation counters
//       monotone, and cumulative oracle regret non-decreasing.
//
// TradingEngine invokes RoundObservers after each settled round; the
// shipped InvariantChecker implementation reports violations through
// util::Status and keeps structured InvariantViolation records. Unit tests
// and external drivers can also feed the checker directly through an
// EngineStateView (e.g. with a deliberately mutated ledger).

#ifndef CDT_MARKET_INVARIANTS_H_
#define CDT_MARKET_INVARIANTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bandit/arm.h"
#include "game/cost.h"
#include "game/stackelberg.h"
#include "game/valuation.h"
#include "market/ledger.h"
#include "market/types.h"
#include "util/math_util.h"
#include "util/status.h"

namespace cdt {
namespace market {

class TradingEngine;

/// Families of checked invariants.
enum class InvariantKind {
  kLedgerConservation,
  kIndividualRationality,
  kStationarity,
  kBanditSanity,
};

/// "LedgerConservation", "IndividualRationality", ...
const char* InvariantKindName(InvariantKind kind);

/// One structured violation record.
struct InvariantViolation {
  InvariantKind kind = InvariantKind::kLedgerConservation;
  std::int64_t round = 0;
  /// Stable check identifier, e.g. "ledger.net_position" or "ir.seller".
  std::string check;
  /// Human-readable description carrying the offending numbers.
  std::string detail;
  /// Residual magnitude that exceeded the tolerance.
  double magnitude = 0.0;

  /// "[LedgerConservation] round 7 ledger.net_position: ... (|r|=1.2e-3)".
  std::string ToString() const;
};

/// Tolerances and toggles for the shipped checker.
struct InvariantOptions {
  /// Relative tolerance (with a max(1, ·) floor) for money accounting.
  double ledger_tolerance = 1e-7;
  /// ε for individual rationality: Ψ_i >= −ε · max(1, p τ_i).
  double ir_epsilon = 1e-7;
  /// Relative tolerance for stationarity/FOC residuals and for profit-value
  /// comparisons against the re-solved stage optima.
  double stationarity_tolerance = 1e-5;
  /// Stationarity re-solves the round's game; disable to cut the cost in
  /// half when only accounting invariants are of interest.
  bool check_stationarity = true;
  bool check_bandit = true;
  /// Stop recording after this many violations (reporting stays truthful
  /// about the overflow through violations_truncated()).
  std::size_t max_violations = 32;
};

/// Everything the checker reads from the engine after one round. Decoupled
/// from TradingEngine so tests can fabricate inconsistent states (mutated
/// ledger entries, doctored reports) and assert they are detected.
struct EngineStateView {
  const Ledger* ledger = nullptr;
  /// The engine's pricing estimates (Eqs. 17-18); may be null to skip the
  /// bandit checks.
  const bandit::EstimatorBank* estimates = nullptr;
  /// Per-seller cost parameters, size M (indexed by seller id).
  const std::vector<game::SellerCostParams>* seller_costs = nullptr;
  game::PlatformCostParams platform_cost;
  game::ValuationParams valuation;
  util::Interval consumer_price_bounds{0.0, 0.0};
  util::Interval collection_price_bounds{0.0, 0.0};
  double max_sensing_time = 0.0;  // T
  int num_pois = 0;               // L
  int num_selected = 0;           // K
  /// Oracle per-round expected revenue L · Σ_{S*} q (0 disables the regret
  /// monotonicity check).
  double oracle_round_revenue = 0.0;
};

/// Per-round observer hook; the engine invokes observers after settlement.
/// A non-OK status aborts the run and propagates out of RunRound/RunAll.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  virtual util::Status OnRound(const TradingEngine& engine,
                               const RoundReport& report) = 0;
};

/// The shipped invariant-checking observer. Stateful: tracks cumulative
/// money flows, bandit counters and regret across the rounds it has seen,
/// so it must observe a run from its first round.
class InvariantChecker : public RoundObserver {
 public:
  explicit InvariantChecker(InvariantOptions options = {});

  /// Builds the EngineStateView from the live engine and calls Check().
  util::Status OnRound(const TradingEngine& engine,
                       const RoundReport& report) override;

  /// Runs every enabled invariant family against one round; returns an
  /// error status when the round added violations. Callable directly with
  /// fabricated views (no engine required).
  util::Status Check(const EngineStateView& view, const RoundReport& report);

  /// Re-seeds the cumulative expectations from a mid-run engine state
  /// (snapshot restore): ledger aggregates, per-seller balances, bandit
  /// counters and the round cursor become the new baseline. Cumulative
  /// regret restarts at zero, which keeps the monotonicity check valid —
  /// it asserts non-decrease, not an absolute level.
  util::Status ResetBaseline(const Ledger& ledger,
                             const bandit::EstimatorBank* estimates,
                             std::int64_t last_round);

  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  /// Total violations observed (can exceed violations().size() once the
  /// max_violations cap truncates the stored records).
  std::size_t violation_count() const { return violation_count_; }
  /// True when more violations occurred than max_violations kept.
  bool violations_truncated() const { return truncated_; }
  const InvariantOptions& options() const { return options_; }

  // --- individual invariant families (each appends violations) ---

  /// (a) Money conservation between the report and the ledger.
  void CheckLedger(const EngineStateView& view, const RoundReport& report);

  /// (b) Individual rationality plus Eq. 5/7/9 profit-report consistency.
  void CheckProfits(const EngineStateView& view, const RoundReport& report);

  /// (c) Stage-1..3 stationarity of the reported equilibrium prices/times.
  void CheckStationarity(const EngineStateView& view,
                         const RoundReport& report);

  /// (d) Bandit counters, UCB finiteness and regret monotonicity.
  void CheckBandit(const EngineStateView& view, const RoundReport& report);

 private:
  void AddViolation(InvariantKind kind, std::int64_t round, std::string check,
                    std::string detail, double magnitude);

  /// Points solver_ at the round's game (game_sellers_, game_qualities_
  /// under the view's economics): a full Create when there is no solver or
  /// the platform, valuation, boxes or T changed, ResetCoalition otherwise.
  /// Either way the inputs pass GameConfig::Validate's checks, in its order.
  util::Status RetargetSolver(const EngineStateView& view);

  InvariantOptions options_;
  std::vector<InvariantViolation> violations_;
  std::size_t violation_count_ = 0;
  bool truncated_ = false;

  // Cumulative expectations maintained round over round.
  std::int64_t last_round_ = 0;
  double expected_consumer_outflow_ = 0.0;
  double expected_seller_inflow_ = 0.0;
  /// Expected per-seller cumulative inflow, lazily sized to M.
  std::vector<double> expected_seller_balance_;
  std::uint64_t prev_total_observations_ = 0;
  std::vector<std::uint64_t> prev_arm_observations_;
  double cumulative_regret_ = 0.0;

  // Stationarity's re-solve: the checker's own solver and the coalition
  // buffers it swaps with ResetCoalition (allocation-free in steady state).
  std::optional<game::StackelbergSolver> solver_;
  std::vector<game::SellerCostParams> game_sellers_;
  std::vector<double> game_qualities_;
  /// CheckBandit's corrupted-report marks by seller id: seller s's report
  /// was corrupted this round iff corrupted_mark_[s] == mark_epoch_.
  std::vector<std::uint64_t> corrupted_mark_;
  std::uint64_t mark_epoch_ = 0;
};

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_INVARIANTS_H_
