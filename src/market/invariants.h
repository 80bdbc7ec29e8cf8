// Economic-invariant checking for the CDT trading pipeline.
//
// The Stackelberg equilibrium (Thms. 14-16) and Algorithm 1's payment flow
// imply hard invariants that must hold on *every* round of *every* run, not
// just in hand-picked test cases:
//
//   (a) ledger conservation — consumer outflow equals platform inflow,
//       platform inflow equals seller payments plus platform profit plus
//       the aggregation cost C^J (Eq. 8), every round for the accounts the
//       round moved money between; every seller's balance and the
//       double-entry net position at each O(M) audit (AuditLedger);
//   (b) individual rationality — every selected seller's realised profit
//       Ψ_i = p τ_i − C_i(τ_i, q̄_i) is non-negative (up to ε) at the
//       Stage-3 best response of Eq. (20);
//   (c) stationarity — the solved prices (p^{J*}, p*) satisfy the
//       first-order conditions of Eqs. (7)-(8) within tolerance when the
//       interior regime holds, and otherwise reach each stage's optimum,
//       recomputed from the raw costs and qualities with the checker's own
//       arithmetic: Stage 2 by a plain sweep over the supply segments,
//       in the kink order the solve's proof (game::SolveProof) gives when
//       that verifies in O(K); Stage 1 by tangent bounds at the committed
//       supply and, where they do not settle a domain, an independent
//       search;
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
  /// What the round's solve proved (TradingEngine::solve_proof); null for
  /// rounds without one and for fabricated views, whose kinks the checker
  /// then sorts itself.
  const game::SolveProof* proof = nullptr;
};

/// Per-round observer hook; the engine invokes observers after settlement.
/// A non-OK status aborts the run and is what RunRound returns.
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
  /// Violations recorded before the checker stops keeping records
  /// (reporting stays truthful about the overflow through
  /// violations_truncated()).
  static constexpr std::size_t kMaxViolations = 32;

  /// Builds the EngineStateView from the live engine and calls Check();
  /// after the run's last round also AuditLedger().
  util::Status OnRound(const TradingEngine& engine,
                       const RoundReport& report) override;

  /// Runs every enabled invariant family against one round; returns an
  /// error status when the round added violations. Callable directly with
  /// fabricated views (no engine required).
  util::Status Check(const EngineStateView& view, const RoundReport& report);

  /// The O(M) ledger audit: every seller's balance against the payments
  /// the checked rounds made, and the double-entry net position. Its
  /// violations carry the last checked round. Run through
  /// TradingEngine::AuditInvariants where a snapshot is captured and
  /// wherever a run ends (OnRound runs it after the last round); Check()
  /// covers only the accounts each round touched.
  util::Status AuditLedger(const Ledger& ledger);

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
  /// kMaxViolations cap truncates the stored records).
  std::size_t violation_count() const { return violation_count_; }
  /// True when more violations occurred than kMaxViolations kept.
  bool violations_truncated() const { return truncated_; }

  // --- individual invariant families (each appends violations) ---

  /// (a) Money conservation between the report and the ledger.
  void CheckLedger(const EngineStateView& view, const RoundReport& report);

  /// (b) Individual rationality plus Eq. 5/7/9 profit-report consistency.
  void CheckProfits(const EngineStateView& view, const RoundReport& report);

  /// (c) Stage-1..3 stationarity of the reported equilibrium prices/times.
  void CheckStationarity(const EngineStateView& view,
                         const RoundReport& report);

  /// One piece of the round's supply curve Στ(p) = a·p − b + c, on
  /// collection prices [lo, hi), with the Theorem-15 constants of its
  /// interior optimum p*(x) = (x·a − num)/den and its supply at hi.
  struct SupplySegment {
    double lo, hi;
    double a, b, c;
    double num, den;
    double end_supply;
  };

  /// (d) Bandit counters, UCB finiteness and regret monotonicity.
  void CheckBandit(const EngineStateView& view, const RoundReport& report);

 private:
  void AddViolation(InvariantKind kind, std::int64_t round, std::string check,
                    std::string detail, double magnitude);

  /// OK when no violation was added since the count was `before`, else an
  /// Internal status quoting the first new record.
  util::Status Outcome(std::size_t before, std::int64_t round) const;

  /// Rebuilds segments_ for the coalition in sellers_ from its activation
  /// and saturation kinks inside the collection box, in the order the
  /// view's proof gives when that verifies in O(K) as a sorted permutation
  /// of them (else a stationarity.kink_order violation), else sorted.
  void BuildSupply(const EngineStateView& view, const RoundReport& report);

  /// Stage 1 of CheckStationarity: the consumer's price against the
  /// supremum over the consumer box, given the supply sold at the
  /// reported collection price.
  void CheckConsumerPrice(const EngineStateView& view,
                          const RoundReport& report, double mean_quality,
                          double supply);

  std::vector<InvariantViolation> violations_;
  std::size_t violation_count_ = 0;
  bool truncated_ = false;

  // Cumulative expectations maintained round over round.
  std::int64_t last_round_ = 0;
  double expected_consumer_outflow_ = 0.0;
  double expected_seller_inflow_ = 0.0;
  /// Per seller id, lazily sized to M: the balance the checked rounds paid
  /// it and its bandit counter when last checked. One row per seller, so a
  /// round's scattered reads miss the cache once per seller, not twice.
  struct SellerRecord {
    double balance = 0.0;
    std::uint64_t observations = 0;
  };
  std::vector<SellerRecord> seller_records_;
  /// The selected sellers' expected balances (CheckLedger) and cost rows
  /// (CheckProfits); released after a select-all round.
  std::vector<double> record_scratch_;
  std::vector<game::SellerCostParams> cost_scratch_;
  std::uint64_t prev_total_observations_ = 0;
  double cumulative_regret_ = 0.0;

  // Stationarity's scratch, capacity kept across rounds. Per coalition
  // member: q̄_i, a_i, b_i and Eq. (20)'s slope 1/(2 q̄_i a_i) and offset
  // b_i/(2 a_i).
  struct GameSeller {
    double q, a, b, slope, offset;
  };
  std::vector<GameSeller> sellers_;
  /// A supply kink: its price and 2j (member j activates) or 2j+1 (member
  /// j saturates at T).
  struct Kink {
    double price;
    int event;
  };
  std::vector<Kink> kinks_;
  std::vector<Kink> kink_scratch_;
  /// Per event 2j / 2j+1: its price while it is an unplaced kink.
  std::vector<double> kink_price_;
  std::vector<SupplySegment> segments_;
  /// Stage 1's per-domain tangent bounds (box.lo's line, then per segment).
  std::vector<double> bounds_;
  /// CheckBandit's corrupted-report marks by seller id: seller s's report
  /// was corrupted this round iff corrupted_mark_[s] == mark_epoch_.
  std::vector<std::uint64_t> corrupted_mark_;
  std::uint64_t mark_epoch_ = 0;
};

}  // namespace market
}  // namespace cdt

#endif  // CDT_MARKET_INVARIANTS_H_
