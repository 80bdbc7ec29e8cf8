// Incremental top-K-by-UCB selection over an EstimatorBank (Algorithm 1's
// per-round Eq. (19) argmax), exact at every scale.
//
// The selector files every warm arm under its observation count n_i. All
// arms with the same n_i share one bonus b = sqrt(sl / n_i) (sl =
// exploration · ln Σn, the numerator UcbValuesInto hoists), computed once
// per group with UcbValuesInto's association, so an arm's value is the
// same double fl(mean_i + b) the full scan produces. IEEE division, sqrt
// and addition round monotonically: mean_a ≥ mean_b implies
// fl(mean_a + b) ≥ fl(mean_b + b), and a larger numerator or a smaller
// count never gives a smaller bonus. Exactness rests on that alone, with
// no tolerance:
//
//   * A group is a few runs of (mean, arm) entries, sorted by mean
//     descending and arm ascending, in one pooled array. So a run is also
//     in value order, and only inside a run of equal values can the
//     arm-index tie-break disagree with it. An entry carries the mean it
//     was filed with and is live while the arm's count still equals the
//     group's; counts only grow, so a played arm leaves a tombstone behind
//     and its new entry joins its new group's sorted arrival run. While a
//     group's last run is at most twice the size of the new one, the two
//     merge, so a group holds O(log M) runs; the pool drops its tombstones
//     once it holds twice as many entries as there are warm arms.
//   * Each run carries a cap, its group's bonus at some sl_cap ≥ sl, so
//     fl(head mean + cap) bounds the run's values from above. sl only grows
//     with Σn; the caps are retaken, once per group, when it passes sl_cap,
//     which is set just above it.
//   * A selection advances each run past the tombstones at its head. The
//     `need` heads with the highest caps get exact values; `need` entries
//     reach the smallest of those, so it is a threshold no selected value
//     falls below, and a run capped under it is skipped without a sqrt.
//     The surviving heads get exact values, and the need-th best of them
//     tightens the threshold. A max-heap then merges their runs: an entry
//     no other head ties is emitted at once; a tie collects every live
//     entry of that value, keeping the smallest arm indices, so ties break
//     exactly as the full scan breaks them. Once an entry loses its
//     tie-break, the rest of its equal-mean stretch has larger indices and
//     is skipped with a binary search.
//   * Unexplored arms carry a +inf UCB with index-ascending ties, so the
//     bank's cold list is emitted ahead of the warm winners verbatim.
//
// Under Eq. (19)'s bonus CUCB plays the lowest-count arms in mean order,
// so at large M a few groups hold every competitive arm and a round
// examines about K entries. The structure is rebuilt, with one radix sort
// of (count, mean) keys, only when the bank changed out of band: every
// change bumps the bank's update_seq(), and an Invalidate that does not
// see exactly its predecessor + 1 (or a selection that sees an unannounced
// change) means an update skipped the selector. The emitted selection is
// byte-identical to TopKIndicesInto over UcbValuesInto (pinned by
// topk_test).

#ifndef CDT_BANDIT_TOPK_H_
#define CDT_BANDIT_TOPK_H_

#include <cstdint>
#include <vector>

#include "bandit/arm.h"

namespace cdt {
namespace bandit {

/// Incremental, allocation-free (steady state) top-K-by-UCB selection.
/// Not thread-safe; one selector serves one bank.
class GroupedTopKSelector {
 public:
  GroupedTopKSelector() = default;

  /// Records that `arm`'s statistics changed in the bank update that
  /// immediately preceded this call. O(1); safe to call before the first
  /// SelectInto.
  void Invalidate(const EstimatorBank& bank, int arm);

  /// Fills `out` with the k top-UCB arm indices (descending value,
  /// ascending index on ties) — byte-identical to
  /// TopKIndicesInto(UcbValues(), k). Rebuilds from the bank when it
  /// changed without a matching Invalidate (a Restore, or an Update made
  /// behind the selector's back).
  void SelectInto(const EstimatorBank& bank, int k, std::vector<int>* out);

 private:
  /// One filed arm: the mean it had when filed under its run's count.
  struct Entry {
    double mean;
    int arm;
    int mark;  // 0, except at run heads while CompactPool runs
  };
  /// Sort key of a filing: count ascending, then mean descending, then
  /// arm ascending.
  struct Key {
    double count;
    double mean;
    int arm;
  };
  /// pool_[head, end): entries of one group, sorted (mean desc, arm asc).
  struct Run {
    double count;
    double cap;  // the group's bonus at sl_cap_: sqrt(sl_cap_ / count)
    std::size_t head;
    std::size_t end;
  };
  /// An upper bound on the value of runs_[run]'s head.
  struct Capped {
    double cap;
    std::size_t run;
  };
  /// A merge cursor: runs_[run]'s live entry at pool_[pos], its exact
  /// value and the group's bonus.
  struct Head {
    double value;
    double bonus;
    std::size_t pos;
    std::size_t run;
  };

  void Rebuild(const EstimatorBank& bank);
  /// Files the pending arms under their current counts.
  void FileArrivals(const EstimatorBank& bank);
  /// Appends the live entries of a and b (same count) to the pool as one
  /// sorted run.
  Run MergeRuns(const Run& a, const Run& b, const double* counts);
  /// Drops tombstones, emptied runs and the pool space of merged-away
  /// runs.
  void CompactPool(const double* counts);
  /// Advances `h` to its run's first live entry at or after h->pos and
  /// sets its value; false when the run is exhausted.
  bool SeekLive(Head* h, const double* counts) const;
  /// Appends the `need` best warm arms to `out`.
  void MergeTop(const EstimatorBank& bank, int need, std::vector<int>* out);

  std::vector<Entry> pool_;       // every run's entries
  std::vector<Run> runs_;         // by count ascending; a group's runs adjacent
  std::vector<Key> keys_;         // filing scratch
  std::vector<int> pending_;      // arms invalidated since the last select
  std::vector<double> caps_;      // selection scratch: head value bounds
  std::vector<Capped> top_;       // selection scratch: threshold heap
  std::vector<Head> heads_;       // selection scratch: merge heap
  std::vector<int> level_;        // selection scratch: one value level
  double sl_cap_ = 0.0;           // numerator of the caps, at least sl
  bool in_sync_ = false;          // every bank change so far was announced
  std::uint64_t seq_ = 0;         // bank.update_seq() as last seen
};

}  // namespace bandit
}  // namespace cdt

#endif  // CDT_BANDIT_TOPK_H_
