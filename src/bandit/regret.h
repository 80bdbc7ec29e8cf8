// Regret accounting (Sec. IV-A): per-round expected revenue vs. the oracle,
// the Δmin/Δmax revenue gaps of Eqs. (35)–(36), and the Theorem-19 regret
// bound O(M K^3 ln(NKL)) evaluated exactly per Lemma 18 / Eq. (53).

#ifndef CDT_BANDIT_REGRET_H_
#define CDT_BANDIT_REGRET_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace bandit {

/// The smallest and largest revenue differences between the optimal seller
/// set and any non-optimal set (paper Eqs. 35–36):
///   Δmin = Σ_{S*} q − max_{S≠S*} Σ_S q = q_(K) − q_(K+1)
///   Δmax = Σ_{S*} q − min_S Σ_S q     = Σ top-K − Σ bottom-K.
struct GapStatistics {
  double delta_min = 0.0;
  double delta_max = 0.0;
};

/// Computes the gaps for `qualities` with selection size k (1 <= k < M —
/// with k == M there is no non-optimal set and the call errors).
util::Result<GapStatistics> ComputeGaps(const std::vector<double>& qualities,
                                        int k);

/// Accumulates expected revenue/regret for one policy run.
///
/// Expected revenue of a round is L · Σ_{i∈S} q_i using the ground-truth
/// expected qualities (regret is defined on expectations, Eq. 34).
class RegretTracker {
 public:
  /// `qualities` are ground-truth expected qualities; k is the per-round
  /// selection size used for the oracle baseline; num_pois is L.
  static util::Result<RegretTracker> Create(std::vector<double> qualities,
                                            int k, int num_pois);

  /// Records one round's selection.
  util::Status RecordRound(const std::vector<int>& selected);

  std::int64_t rounds() const { return rounds_; }

  /// L · Σ q over every selection so far.
  double cumulative_expected_revenue() const { return expected_revenue_; }

  /// rounds · L · Σ_{S*} q.
  double optimal_revenue() const;

  /// optimal_revenue() − cumulative_expected_revenue().
  double regret() const;

  /// Per-round optimal expected revenue L · Σ_{S*} q.
  double optimal_round_revenue() const { return optimal_round_revenue_; }

 private:
  RegretTracker(std::vector<double> qualities, int k, int num_pois,
                double optimal_round_revenue);

  std::vector<double> qualities_;
  int k_;
  int num_pois_;
  double optimal_round_revenue_;
  std::int64_t rounds_ = 0;
  double expected_revenue_ = 0.0;
};

/// Lemma 18's bound on the expected counter E[β_i^N]:
///   4K²(K+1)ln(NKL)/Δmin² + 1 + π²/(3 K^{2K+1} L^{K+2}).
/// Evaluated in log-space so large K does not overflow.
double Lemma18CounterBound(int k, std::int64_t n, int l, double delta_min);

/// Theorem 19's regret bound: M · Δmax · Lemma18CounterBound(...).
/// Returns +infinity when Δmin == 0 (tied top-K boundary).
double Theorem19RegretBound(int m, int k, std::int64_t n, int l,
                            const GapStatistics& gaps);

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_REGRET_H_
