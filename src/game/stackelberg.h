// The three-stage Hierarchical Stackelberg game solver (Sec. III-B).
//
// Backward induction over Def. 12:
//   Stage 3 (sellers):  τ_i* = (p − q̄_i b_i) / (2 q̄_i a_i)        (Thm. 14)
//   Stage 2 (platform): p*  = (p^J A − (λA − 2θAB − B)) / (2A(1+θA))
//   Stage 1 (consumer): p^{J*} = (3 q̄ Λ + √Δ − 2) / (4 q̄ Θ)        (Thm. 16)
// with A = Σ 1/(2 q̄_i a_i), B = Σ b_i/(2 a_i), Θ = A/(2(1+θA)),
// Λ = (λA − 2θAB − B)/(2(1+θA)) + B and Δ = (q̄Λ − 2)² + 8 Θ ω q̄².
//
// NOTE on Theorem 15: the paper prints the stage-2 numerator constant as
// (λA − 2θBA + B); differentiating Eq. (7) gives (λA − 2θAB − B) — the B
// term's sign is a typo. We implement the corrected constant (and propagate
// it into Λ); tests/game/stackelberg_test.cc evaluates the printed form
// from aggregates() to demonstrate it is not profit-maximising. See
// DESIGN.md §1.
//
// All stage outputs are projected onto their feasible boxes: prices into
// their [min, max] intervals (Def. 5) and sensing times into [0, T].

#ifndef CDT_GAME_STACKELBERG_H_
#define CDT_GAME_STACKELBERG_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "game/cost.h"
#include "game/profit.h"
#include "game/valuation.h"
#include "util/math_util.h"
#include "util/status.h"

namespace cdt {
namespace game {

/// Inputs of one round's game: the K selected sellers (cost parameters and
/// learned qualities), the platform and consumer parameters, and the
/// feasible boxes for each strategy.
struct GameConfig {
  std::vector<SellerCostParams> sellers;  // size K
  std::vector<double> qualities;          // q̄_i, size K, each in (0, 1]
  PlatformCostParams platform;
  ValuationParams valuation;
  /// [p^J_min, p^J_max] — consumer unit data-service price box.
  util::Interval consumer_price_bounds{1e-6, 1e9};
  /// [p_min, p_max] — platform unit data-collection price box.
  util::Interval collection_price_bounds{1e-6, 1e9};
  /// Round duration T: each τ_i is clamped into [0, T].
  double max_sensing_time = std::numeric_limits<double>::infinity();

  util::Status Validate() const;
};

/// Derived constants of Theorems 15–16.
struct Aggregates {
  double a_sum = 0.0;        // A = Σ 1/(2 q̄_i a_i)
  double b_sum = 0.0;        // B = Σ b_i/(2 a_i)
  double theta_coef = 0.0;   // Θ = A / (2 (1 + θA))
  double lambda_coef = 0.0;  // Λ = (λA − 2θAB − B)/(2(1+θA)) + B
  double mean_quality = 0.0; // q̄ = mean of selected sellers' qualities
};

/// One full strategy profile plus the resulting profits.
struct StrategyProfile {
  double consumer_price = 0.0;    // p^J
  double collection_price = 0.0;  // p
  std::vector<double> tau;        // τ_i, size K
  double total_time = 0.0;        // Στ
  double consumer_profit = 0.0;   // Φ
  double platform_profit = 0.0;   // Ω
  std::vector<double> seller_profits;  // Ψ_i, size K
};

/// Closed-form solver for one round's game.
class StackelbergSolver {
 public:
  /// Validates the configuration; all getters below are then total.
  static util::Result<StackelbergSolver> Create(GameConfig config);

  /// Re-targets the solver at a new coalition without tearing it down:
  /// swaps the caller's seller/quality buffers into the config (the caller
  /// receives the old buffers back, keeping their capacity for the next
  /// round) and rebuilds the aggregates and supply-kink structure in place.
  /// Only the qualities are re-validated — they are the learned inputs that
  /// change round to round; the seller cost parameters must already be
  /// valid, as Create() or a prior ResetCoalition established. On error the
  /// buffers are not swapped and the solver is unchanged. Steady state this
  /// performs zero heap allocations.
  util::Status ResetCoalition(std::vector<SellerCostParams>* sellers,
                              std::vector<double>* qualities);

  const GameConfig& config() const { return config_; }
  const Aggregates& aggregates() const { return agg_; }
  int num_sellers() const { return static_cast<int>(config_.sellers.size()); }

  /// Stage 3: seller i's best-response sensing time to `collection_price`,
  /// clamped into [0, T] (interior form: Thm. 14 / Eq. 20).
  double SellerBestTime(int i, double collection_price) const;

  /// All sellers' stage-3 best responses.
  std::vector<double> SellerBestTimes(double collection_price) const;

  /// Stage 2: the platform's *exact* best-response price to
  /// `consumer_price` within the collection-price box. The profit is
  /// piecewise quadratic: each seller contributes an activation kink at
  /// p = q̄_i b_i (below which its τ_i clamps to 0) and a saturation kink at
  /// p = q̄_i b_i + 2 q̄_i a_i T (above which τ_i clamps to T); between kinks
  /// the Theorem-15 formula applies with the active sellers' aggregates.
  /// The answer is the first maximiser of the per-segment sweep (box.lo,
  /// then per segment its interior optimum and its upper endpoint), found
  /// in O(log K) plus a small bucket through the certified envelope index
  /// (see EnvelopeIndex). Coincides with Theorem 15 whenever the interior
  /// solution keeps every seller strictly inside (0, T).
  double PlatformBestPrice(double consumer_price) const;

  /// Stage 2, paper-interior form (corrected Thm. 15, all sellers assumed
  /// active and unsaturated), clamped to the box.
  double PlatformBestPriceInterior(double consumer_price) const;

  /// Stage 1: the consumer's optimal price within its box. Uses the
  /// Theorem-16 closed form when the induced solution is interior (every
  /// τ_i in (0, T), prices unclamped); otherwise falls back to numeric
  /// maximisation of the exact anticipated profit.
  double ConsumerBestPrice() const;

  /// Stage 1, paper-interior form (Thm. 16 / Eq. 22), clamped to the box.
  double ConsumerBestPriceInterior() const;

  /// Full backward induction; the returned profile is the Stackelberg
  /// Equilibrium of Theorem 20 (projected onto the feasible boxes).
  StrategyProfile Solve() const;

  /// Consumer profit at `consumer_price` with the platform and sellers
  /// playing their (clamped) best responses — the stage-1 objective.
  double ConsumerProfitAnticipating(double consumer_price) const;

  /// Platform profit at (`consumer_price`, `collection_price`) with the
  /// sellers playing their best responses — the stage-2 objective.
  double PlatformProfitAnticipating(double consumer_price,
                                    double collection_price) const;

  /// Evaluates an explicit strategy profile (no best responses).
  StrategyProfile EvaluateProfile(double consumer_price,
                                  double collection_price,
                                  const std::vector<double>& tau) const;

  /// Total best-response sensing time Στ_i(p) at collection price `p`,
  /// evaluated in O(log K) from the precomputed kink structure.
  double TotalTimeAt(double collection_price) const;

 private:
  /// One kink of the piecewise-linear supply curve Στ(p): at prices in
  /// [price, next kink) the curve is S(p) = a·p − b + c.
  struct SupplyKink {
    double price;
    double a;  // slope aggregate Σ 1/(2 q̄_i a_i) over active, unsaturated
    double b;  // offset aggregate Σ b_i/(2 a_i) over the same set
    double c;  // T · (number of saturated sellers)
  };

  /// One activation/saturation event while building the kink structure.
  /// `src` is the event's position in generation order (seller order),
  /// the last key of the sort order.
  struct KinkEvent {
    double price;
    double delta_a, delta_b, delta_c;
    int src;
  };

  /// Per-segment constants of the stage-2 best-response sweep, derived
  /// from kinks_ once per coalition (BuildSegmentTable): the endpoint
  /// supply and its θS²/λS profit terms, the Theorem-15 numerator constant
  /// and denominator, and the consumer-price window in which the segment's
  /// interior optimum can land inside the segment. Each constant is
  /// computed with the exact expression the naive per-segment sweep uses
  /// per query, so query results are bit-identical to it (pinned by
  /// tests/game/platform_best_price_test.cc against
  /// tests/support/reference_stackelberg.h).
  struct SegmentTable {
    std::vector<double> end_price;   // segment upper endpoint (last = hi)
    std::vector<double> end_supply;  // S at the endpoint, clamped >= 0
    std::vector<double> end_d1;      // θ·S·S at the endpoint
    std::vector<double> end_d2;      // λ·S at the endpoint
    std::vector<double> c;           // λa − 2θa·b_eff − b_eff
    std::vector<double> denom;       // 2a(1+θa)
    /// Widened p^J window where the segment's interior optimum may fall
    /// strictly inside the segment; the exact (original-expression) test
    /// re-runs inside the window, so widening only costs false positives.
    std::vector<double> window_lo;
    std::vector<double> window_hi;
    double init_supply = 0.0;  // S at box.lo under segment 0, clamped
    double init_d1 = 0.0;      // θ·S·S at box.lo
    double init_d2 = 0.0;      // λ·S at box.lo
  };

  /// Certified upper-envelope index over the segment table, rebuilt with
  /// it (BuildEnvelopeIndex). Segment j's endpoint candidate is a line in
  /// the consumer price x: v_j(x) = (x − end_price_j)·end_supply_j −
  /// end_d1_j − end_d2_j. The consumer box is cut into pieces along the
  /// upper envelope of these lines, and each piece keeps a bucket: the
  /// segments whose interior window meets the piece and the segments whose
  /// endpoint line may win on it, each in sweep order. A line is left out
  /// of a piece only when some other line's *rounded* value is provably
  /// strictly larger at every x of the piece (a two-point test of a linear
  /// gap against the worst-case rounding error of both evaluations).
  /// Chains of "strictly larger" end at a kept line, so the
  /// bucket holds every line that can attain the rounded maximum and the
  /// query answer is the full sweep's, bit for bit. Queries outside the
  /// box, coalitions under kMinIndexedSegments segments and coalitions
  /// whose constants come near overflow use the last bucket, which holds
  /// every segment.
  struct EnvelopeIndex {
    /// Piece boundaries, nondecreasing: breaks[0] = box.lo, breaks.back()
    /// = box.hi (consumer box); piece r is [breaks[r], breaks[r+1]]. Empty
    /// when the coalition is not indexed.
    std::vector<double> breaks;
    /// CSR over segment indices: bucket r lists its windows' segments in
    /// [begin[r], split[r]) and its lines' in [split[r], begin[r+1]), each
    /// ascending; the last bucket lists every segment in both.
    std::vector<int> begin;
    std::vector<int> split;
    std::vector<int> entries;
    // Build scratch, kept for its capacity (steady state allocates nothing).
    std::vector<double> intercept;  // −(end_price·end_supply + d1 + d2)
    std::vector<double> magnitude;  // end_price·end_supply + d1 + d2
    std::vector<double> at_lo, at_hi;    // line values at the box ends
    std::vector<double> err_lo, err_hi;  // their rounding-error bounds
    std::vector<int> order;         // lines sorted by (slope, intercept)
    std::vector<int> hull;          // envelope lines, slope ascending
    std::vector<int> piece_line;    // envelope line of each piece
    /// First/last piece per candidate: 2j for segment j's window, 2j+1
    /// for its line.
    std::vector<int> range_lo, range_hi;
    std::vector<int> cursor;
  };

  StackelbergSolver(GameConfig config, Aggregates agg)
      : config_(std::move(config)), agg_(agg) {
    BuildSupplyKinks();
  }

  void BuildSupplyKinks();

  /// Rebuilds seg_ from kinks_ (tail of every BuildSupplyKinks).
  void BuildSegmentTable();

  /// Rebuilds env_ from seg_ (tail of every BuildSupplyKinks).
  void BuildEnvelopeIndex();

  /// Sorts event_scratch_ under the strict total order (price, delta_a,
  /// delta_b, delta_c, src), so the sorted sequence, and the kink
  /// accumulation over it, is unique.
  void SortKinkEvents();

  /// True when (consumer_price, collection_price) reproduce the interior
  /// regime: prices strictly inside their boxes' interiors is not required,
  /// but every seller must be strictly active and unsaturated.
  bool InteriorRegimeHolds(double collection_price) const;

  GameConfig config_;
  Aggregates agg_;
  /// Sorted by price; kinks_[0].price == collection box lower bound, so a
  /// binary search always lands on a valid segment.
  std::vector<SupplyKink> kinks_;
  /// Hoisted per-segment query constants (parallel to kinks_).
  SegmentTable seg_;
  EnvelopeIndex env_;
  /// Scratch reused across BuildSupplyKinks calls (ResetCoalition).
  std::vector<KinkEvent> event_scratch_;

 public:
  /// Envelope-index shape: its piece count (0 when the coalition is not
  /// indexed) and the entries its piece buckets hold together.
  int envelope_pieces() const {
    return env_.breaks.empty() ? 0 : static_cast<int>(env_.breaks.size()) - 1;
  }
  std::size_t envelope_bucket_entries() const {
    return env_.entries.size() - 2 * kinks_.size();
  }
};

/// Computes the Theorem 15/16 aggregates for a validated config.
Aggregates ComputeAggregates(const GameConfig& config);

}  // namespace game
}  // namespace cdt

#endif  // CDT_GAME_STACKELBERG_H_
