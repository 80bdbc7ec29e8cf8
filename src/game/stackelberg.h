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

/// What a solve proves beside its answer (after coincenter's
/// TradeRangeStats, returned beside the trade): the facts an independent
/// checker verifies in O(K) with its own arithmetic. A by-product of the
/// solve; it is never part of a round's record.
struct SolveProof {
  /// The supply curve's kinks in price order, each as 2i (seller i of the
  /// coalition activates at p = q̄_i b_i) or 2i+1 (it saturates at
  /// p = q̄_i b_i + 2 q̄_i a_i T): exactly the kinks strictly inside the
  /// collection box. Verifying that this is a sorted permutation is O(K).
  std::vector<int> kink_order;
  /// Stage 2: the sweep position of the returned collection price: -1 for
  /// the box's lower end, 2j for segment j's interior optimum, 2j+1 for
  /// segment j's upper end (segments in kink order).
  int platform_pos = -1;
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
  /// then per segment its interior optimum and its upper endpoint), in
  /// O(K) per query over the segment table. Coincides with Theorem 15
  /// whenever the interior solution keeps every seller strictly inside
  /// (0, T).
  double PlatformBestPrice(double consumer_price) const;

  /// Stage 2, paper-interior form (corrected Thm. 15, all sellers assumed
  /// active and unsaturated), clamped to the box.
  double PlatformBestPriceInterior(double consumer_price) const;

  /// Stage 1: the consumer's optimal price within its box, exactly (Def.
  /// 13). Theorem 16's point is kept, bit for bit, unless some price beats
  /// it by more than 1e-12 relative; a tangent bound over every candidate
  /// of the platform usually proves that without further work (DESIGN.md
  /// §1). Otherwise the platform's response splits the box into regimes
  /// (see RegimePartition); on each, the anticipated profit is concave or
  /// falling, so its maximum is a closed-form point. The price returned is
  /// one at which the solver attains the supremum: where that is a
  /// one-sided limit at a jump of the platform's response, the jump is
  /// bisected (within 1e-9) for the side PlatformBestPrice lands on. At a
  /// tangency of an interior optimum with its pinned end point, a sampled
  /// scan keeps the ~1e-9 that rounding of the platform's choice offers.
  double ConsumerBestPrice() const;

  /// Stage 1's supremum over the consumer box, from the same regime walk,
  /// and the consumer price at which the walk finds it. It is a one-sided
  /// limit where the platform's response jumps, so it may exceed every
  /// attained profit by rounding.
  struct ConsumerSupremum {
    double profit;
    double price;
  };
  ConsumerSupremum ConsumerProfitSupremum() const;

  /// Stage 1, paper-interior form (Thm. 16 / Eq. 22), clamped to the box.
  double ConsumerBestPriceInterior() const;

  /// Full backward induction; the returned profile is the Stackelberg
  /// Equilibrium of Theorem 20 (projected onto the feasible boxes).
  StrategyProfile Solve() const { return Solve(nullptr); }

  /// Solve(), also filling `*proof` (when non-null) with what the solve
  /// proved; its kink order keeps its capacity across calls.
  StrategyProfile Solve(SolveProof* proof) const;

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
  /// `src` is 2i for seller i's activation and 2i+1 for its saturation,
  /// increasing in generation order: the last key of the sort order.
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
    /// Θ = a/(2(1+θa)): the slope in p^J of the supply at the segment's
    /// interior optimum, and the Theorem-16 curvature of its aggregates
    /// (0 for a flat segment).
    std::vector<double> curvature;
    /// The p^J window [interior_lo, interior_hi] where the segment's
    /// interior optimum lies inside the segment (empty for a flat one).
    /// Stage 1's walk and certificate read it as is.
    std::vector<double> interior_lo;
    std::vector<double> interior_hi;
    /// The same window widened, for PlatformBestPrice's pruning: the exact
    /// (original-expression) test re-runs inside it, so widening only
    /// costs false positives.
    std::vector<double> window_lo;
    std::vector<double> window_hi;
    double init_supply = 0.0;  // S at box.lo under segment 0, clamped
    double init_d1 = 0.0;      // θ·S·S at box.lo
    double init_d2 = 0.0;      // λ·S at box.lo
  };

  /// Stage 1's regime partition of the consumer box, built by every walk
  /// that the certificate does not settle (BuildRegimePartition). Segment
  /// j's best platform value at consumer price x, G_j(x) = max over p in
  /// the segment of Ω(x, p), is its lower end's line, then (on the window
  /// where its interior optimum lies inside it) a parabola, then its upper
  /// end's line. The platform's value is the upper envelope of the G_j,
  /// and since its best response is nondecreasing in x (Topkis), G_j − G_i
  /// is nondecreasing for i < j: the winners appear in segment order, so
  /// one stack pass builds the envelope.
  struct RegimePartition {
    /// Per segment: φ = √(2Θ), the G sharing its lower line (j − 1, or −1
    /// for box.lo's; −2 none) and where G_j overtakes that G (NaN: no
    /// closed form).
    std::vector<double> phi;
    std::vector<int> below;
    std::vector<double> cross;
    /// The envelope: entry r is segment seg[r] (−1: the box.lo point)
    /// winning on [start[r], start[r+1]] (the last up to the consumer
    /// box's hi).
    std::vector<int> seg;
    std::vector<double> start;
  };

  /// A point of the regime walk: consumer price, the anticipated consumer
  /// profit there, and the platform's response as a sweep position (−1 for
  /// box.lo, 2j for segment j's interior optimum, 2j+1 for its upper end).
  /// `edge` marks a point on a regime boundary, where the response may
  /// jump and the value is only a one-sided limit; `tangent` one where
  /// segment pos/2's interior optimum meets its upper end. Theorem 16's
  /// point is valued at the actual response, has neither flag and has pos
  /// -2.
  struct RegimePoint {
    double price;
    double profit;
    int pos;
    bool edge;
    bool tangent;
  };
  struct RegimeWalk {
    RegimePoint choice;  // Theorem 16's point unless beaten by > 1e-12
    RegimePoint best;    // the supremum's point
    /// PlatformBestPrice(choice.price) when the walk evaluated it (Theorem
    /// 16's point kept), else NaN; and its sweep position.
    double response;
    int response_pos;
  };

  StackelbergSolver(GameConfig config, Aggregates agg)
      : config_(std::move(config)), agg_(agg) {
    BuildSupplyKinks();
  }

  void BuildSupplyKinks();

  /// Rebuilds seg_ from kinks_ (tail of every BuildSupplyKinks).
  void BuildSegmentTable();

  /// Fills `rg` from seg_.
  void BuildRegimePartition(RegimePartition* rg) const;

  /// First x >= from at which G_j exceeds G_i (i < j; i = −1 is the box.lo
  /// line), +inf if none: `from` itself when G_j already does there.
  double Overtake(const RegimePartition& rg, int i, int j, double from) const;

  /// Value and slope (the supply) at x of sweep position `pos`'s platform
  /// profit, with PlatformBestPrice's expressions (an interior optimum's
  /// formula extends past its window).
  double PositionValue(int pos, double x, double* supply) const;

  /// Supply Στ the consumer is sold when the platform plays sweep position
  /// `pos` at consumer price x, exactly as TotalTimeAt computes it.
  double ConsumerSupply(int pos, double x) const;

  /// PlatformBestPrice, also storing the answer's sweep position in *pos.
  double PlatformBestPrice(double consumer_price, int* pos) const;

  /// ConsumerBestPrice, also storing in *response the platform's best
  /// response to the price when Stage 1 already evaluated it (else NaN),
  /// with its sweep position in *response_pos.
  double ConsumerBestPrice(double* response, int* response_pos) const;

  /// Theorem 16's point as the incumbent; unless a tangent bound on ln
  /// certifies it, the regime partition and every regime's closed-form
  /// maximum, pruned by the same bound.
  RegimeWalk WalkRegimes() const;

  /// Sorts event_scratch_ under the strict total order (price, delta_a,
  /// delta_b, delta_c, src), so the sorted sequence, and the kink
  /// accumulation over it, is unique.
  void SortKinkEvents();

  GameConfig config_;
  Aggregates agg_;
  /// Sorted by price; kinks_[0].price == collection box lower bound, so a
  /// binary search always lands on a valid segment.
  std::vector<SupplyKink> kinks_;
  /// Hoisted per-segment query constants (parallel to kinks_).
  SegmentTable seg_;
  /// Scratch reused across BuildSupplyKinks calls (ResetCoalition).
  std::vector<KinkEvent> event_scratch_;
};

/// Computes the Theorem 15/16 aggregates for a validated config.
Aggregates ComputeAggregates(const GameConfig& config);

}  // namespace game
}  // namespace cdt

#endif  // CDT_GAME_STACKELBERG_H_
