// Incremental top-K maintenance over an EstimatorBank (the large-M
// selection hot path).
//
// Between rounds only the K played arms' (mean_i, bonus_base_i) change,
// while the Eq. (19) scalar s = sqrt(ln Σ_j n_j) moves globally — and only
// ever upward. The selector keeps a *candidate pool*: the top
// P = K + Θ(sqrt(M·K)) warm arms by exact UCB as of the last full scan,
// plus every arm updated since. Each selection rescans only the pool with
// the canonical Eq. (19) association (bit-identical to the full-scan
// value) and proves the result exact against a bound on everything
// outside:
//
//   * at rebuild time (scalar s₀) a single O(M) nth_element pass splits
//     the warm arms into pool and outside, recording the outside maxima
//       V = max outside exact UCB,   B = max outside bonus_base_i;
//   * outside arms cannot be updated without joining the pool (every bank
//     update flows through Invalidate, and out-of-band changes are caught
//     by the bank's epoch/total counters), so at a later selection with
//     scalar s ≥ s₀ every outside arm's UCB is ≤ V + (s − s₀)·B + slack,
//     where the fixed slack absorbs the FP discrepancy between that
//     algebraic bound and the canonical sqrt((c·ln T)/n_i) association;
//   * if the K-th best exact value inside the pool strictly exceeds that
//     bound, no outside arm can displace or tie any winner (ties are
//     conservatively unsafe: equality falls back) and the pool selection
//     is provably the global top-K. Otherwise the selector rebuilds —
//     one O(M) scan, cheaper than a full rescan with partial_sort —
//     and the fresh pool is exact by construction.
//
// The pool margin erodes at the rate the played arms' values fall plus
// the global (s − s₀)·B drift, so rebuilds land every ~(P − K)/K rounds;
// sizing P − K ≈ sqrt(M·K) balances the amortized rebuild cost against
// the per-round pool rescan, giving O(K + sqrt(M·K)) work per round
// instead of a full rescan's O(M + M log K).
//
// Unexplored arms never enter the pool: their UCB is +inf with index-
// ascending tie-breaks, so the bank's cold list is emitted ahead of the
// pool winners verbatim. The emitted selection is byte-identical to
// TopKIndicesInto over UcbValuesInto (pinned by test).

#ifndef CDT_BANDIT_TOPK_H_
#define CDT_BANDIT_TOPK_H_

#include <cstdint>
#include <vector>

#include "bandit/arm.h"

namespace cdt {
namespace bandit {

/// Incremental, allocation-free (steady state) top-K-by-UCB selection.
/// Not thread-safe; one selector serves one bank.
class LazyTopKSelector {
 public:
  LazyTopKSelector() = default;

  /// Marks arm `arm`'s statistics as changed after a bank update and
  /// records the bank's post-update identity. O(1), deduplicated; safe to
  /// call before the first SelectInto.
  void Invalidate(const EstimatorBank& bank, int arm);

  /// Fills `out` with the k top-UCB arm indices (descending value,
  /// ascending index on ties) — byte-identical to
  /// TopKIndicesInto(UcbValues(), k). Rebuilds from scratch when the bank
  /// changed out of band (Restore bumps the epoch; any update that skipped
  /// Invalidate changes the total), when too many arms are invalid, or
  /// when the pool can no longer prove the selection exact.
  void SelectInto(const EstimatorBank& bank, int k, std::vector<int>* out);

  /// Number of full rebuilds performed (test/telemetry introspection).
  std::int64_t full_rebuilds() const { return full_rebuilds_; }
  /// Pool entries rescanned with exact values across all selections.
  std::int64_t entries_revalidated() const { return entries_revalidated_; }
  /// Current candidate-pool size.
  std::size_t pool_size() const { return pool_.size(); }

 private:
  /// One exact-valued candidate (pool rescan or rebuild scan).
  struct Candidate {
    double value;  // canonical exact UCB
    int arm;
  };

  void Rebuild(const EstimatorBank& bank, int k);
  /// Rescans the pool into best_ (running top-`need` under (value desc,
  /// arm asc)) and returns the worst kept exact value.
  double SelectFromPool(const EstimatorBank& bank, int need);

  /// Absolute slack added to the outside upper bound; covers the ulp-scale
  /// gap between the algebraic bound and the canonical exact association
  /// (measured ≲ 1e-12 at the magnitudes Eq. (19) produces; 1e-9 is three
  /// orders of margin and only costs an extra rebuild when a gap is
  /// genuinely that thin).
  static constexpr double kSlack = 1e-9;

  std::vector<int> pool_;              // candidate arms (exact-rescanned)
  std::vector<std::uint8_t> in_pool_;  // per-arm pool-membership flags
  std::vector<std::uint8_t> dirty_;    // per-arm pending-dedup flags
  std::vector<int> pending_;           // arms invalidated since last select
  std::vector<Candidate> best_;        // running top-k scratch
  std::vector<Candidate> scan_;        // rebuild scratch (all warm arms)
  std::vector<double> ucb_scratch_;    // rebuild scratch (vectorized scan)
  double outside_value_ = 0.0;         // V: max outside exact at rebuild
  double outside_bb_ = 0.0;            // B: max outside bonus_base
  double s_rebuild_ = 0.0;             // s₀: bonus scalar at rebuild
  bool initialized_ = false;
  std::uint64_t epoch_seen_ = 0;
  std::uint64_t synced_total_ = 0;
  std::int64_t full_rebuilds_ = 0;
  std::int64_t entries_revalidated_ = 0;
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_TOPK_H_
