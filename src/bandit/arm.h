// Per-arm quality estimation: the paper's learning state (Eqs. 17–18) and
// UCB index (Eq. 19), maintained for all M sellers by an EstimatorBank.
//
// Layout: the bank stores its state as structure-of-arrays (means[],
// observations[] and counts[] as doubles) so the per-round Eq. (19) scan is
// a branch-free pass over contiguous doubles that the compiler can
// vectorize. Every UCB value uses the canonical association
// mean + sqrt((exploration · ln T) / n_i), bit-identical to the pre-SoA
// implementation (FP arithmetic does not reassociate); the grouped top-K
// selector (topk.h) computes the same expression once per distinct n_i.

#ifndef CDT_BANDIT_ARM_H_
#define CDT_BANDIT_ARM_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace bandit {

/// Learning state of one arm (seller). The bank stores this state
/// column-wise; ArmState remains the row-wise exchange type used by
/// snapshots and call sites that look at a single arm.
struct ArmState {
  /// n_i^t: number of quality samples observed so far (L per selection).
  std::uint64_t observations = 0;
  /// q̄_i^t: running mean of observed qualities.
  double mean = 0.0;

  bool operator==(const ArmState& other) const = default;
};

/// The bank of all M arm estimators. Implements the incremental updates of
/// Eqs. (17)–(18) and the extended-UCB index of Eq. (19):
///
///   q̂_i^t = q̄_i^t + sqrt(exploration * ln(Σ_j n_j^t) / n_i^t)
///
/// with exploration = K+1 in the paper (configurable for ablations).
class EstimatorBank {
 public:
  /// Creates M unexplored arms. `exploration` must be > 0.
  static util::Result<EstimatorBank> Create(int num_arms, double exploration);

  int num_arms() const { return static_cast<int>(means_.size()); }
  double exploration() const { return exploration_; }

  /// Σ_j n_j^t across all arms.
  std::uint64_t total_observations() const { return total_observations_; }

  /// One arm's state, assembled from the columns (by value — there is no
  /// contiguous ArmState row to reference any more).
  ArmState arm(int i) const {
    return ArmState{observations_.at(static_cast<std::size_t>(i)),
                    means_.at(static_cast<std::size_t>(i))};
  }

  // ---- Column views (the SoA hot-path surface) -------------------------

  /// q̄_i for every arm (size M).
  const std::vector<double>& means() const { return means_; }
  /// n_i for every arm (size M).
  const std::vector<std::uint64_t>& observation_counts() const {
    return observations_;
  }
  /// n_i as doubles (0.0 for unexplored arms), kept in lock-step with
  /// observation_counts() so the UCB scan never converts in the loop.
  const std::vector<double>& counts() const { return counts_; }

  /// Number of arms with n_i == 0.
  int num_unexplored() const { return num_unexplored_; }

  /// Ascending indices of the unexplored arms. Maintained lazily: Update()
  /// only decrements the count, and the list is filter-compacted here when
  /// it is out of date (amortised O(#removed), never a full-M rescan).
  const std::vector<int>& cold_arms() const;

  /// exploration * ln(max(Σ n_j, 2)) — the shared numerator of Eq. (19).
  double scaled_log() const;

  /// Incremented by every successful Update() and Restore(): an
  /// incremental consumer (the top-K selector) that has seen each change
  /// arrive one at a time knows it missed none.
  std::uint64_t update_seq() const { return update_seq_; }

  // ---- Learning updates ------------------------------------------------

  /// Feeds one round of observations for arm `i` (the L per-PoI samples).
  /// Observations outside [0,1] are rejected.
  util::Status Update(int i, const std::vector<double>& observations);

  /// Restores a previously captured learning state (snapshot/replay): one
  /// ArmState per arm plus the total counter, which must equal the sum of
  /// the per-arm counters. Means must be finite and in [0, 1].
  util::Status Restore(const std::vector<ArmState>& arms,
                       std::uint64_t total_observations);

  // ---- Eq. (19) scoring ------------------------------------------------

  /// UCB index q̂_i^t; +infinity for an unexplored arm, so cold-start
  /// selection naturally prefers unseen arms.
  double UcbValue(int i) const;

  /// All UCB indices (size M).
  std::vector<double> UcbValues() const;

  /// UcbValues into a caller-owned buffer (resized to M; allocation-free
  /// once the buffer reached capacity — the round hot path). Branch-free
  /// over the columns: an unexplored arm has counts()[i] == 0.0, so
  /// scaled_log / 0.0 == +inf and the sentinel falls out of the same
  /// expression that scores warm arms.
  void UcbValuesInto(std::vector<double>* out) const;

  /// Indices of the k arms with the largest UCB values (descending,
  /// deterministic tie-break by index).
  std::vector<int> TopKByUcb(int k) const;

  /// TopKByUcb through caller-owned buffers: `ucb_scratch` receives the
  /// UCB values, `out` the winning indices (see TopKIndicesInto).
  void TopKByUcbInto(int k, std::vector<double>* ucb_scratch,
                     std::vector<int>* out) const;

  /// Indices of the k arms with the largest empirical means.
  std::vector<int> TopKByMean(int k) const;

  /// TopKByMean into a caller-owned buffer; reads the mean column
  /// directly, so no value scratch is needed.
  void TopKByMeanInto(int k, std::vector<int>* out) const;

 private:
  EstimatorBank(int num_arms, double exploration);

  std::vector<double> means_;
  std::vector<std::uint64_t> observations_;
  std::vector<double> counts_;  // observations_ as doubles
  /// Unexplored arm indices, ascending; may contain stale (now-warm)
  /// entries until the next cold_arms() call compacts it.
  mutable std::vector<int> cold_list_;
  int num_unexplored_ = 0;
  double exploration_;
  std::uint64_t total_observations_ = 0;
  std::uint64_t update_seq_ = 0;
};

/// Returns indices of the k largest entries of `values` (descending value,
/// ascending index on ties). Shared by the bank and the policies.
std::vector<int> TopKIndices(const std::vector<double>& values, int k);

/// TopKIndices into a caller-owned buffer: `out` is resized to
/// min(k, values.size()) and filled with the winning indices. Implemented
/// as a bounded heap-select — O(M) comparisons plus O(k log k) heap work
/// for the entries that enter the running top-k — instead of materialising
/// a full index permutation; output order is identical to a partial sort
/// under (value desc, index asc).
void TopKIndicesInto(const std::vector<double>& values, int k,
                     std::vector<int>* out);

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_ARM_H_
