#include "bandit/topk.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cdt {
namespace bandit {

namespace {

// Total order matching TopKIndicesInto: value descending, arm
// ascending on exact ties. The top-K set under a total order is unique
// regardless of scan order.
inline bool RanksAheadOf(double va, int a, double vb, int b) {
  if (va != vb) return va > vb;
  return a < b;
}

}  // namespace

void LazyTopKSelector::Invalidate(const EstimatorBank& bank, int arm) {
  if (arm < 0) return;
  if (static_cast<std::size_t>(arm) >= dirty_.size()) {
    std::size_t grow = static_cast<std::size_t>(
        std::max(arm + 1, bank.num_arms()));
    in_pool_.resize(grow, 0);
    dirty_.resize(grow, 0);
  }
  // Pool members are rescanned with exact values every selection, so only
  // out-of-pool updates need queueing (they must join the pool before the
  // outside bound is trusted again).
  const std::size_t idx = static_cast<std::size_t>(arm);
  if (!in_pool_[idx] && !dirty_[idx]) {
    dirty_[idx] = 1;
    pending_.push_back(arm);
  }
  // Track the bank identity as of this update, so SelectInto can tell
  // "updates arrived through Invalidate" from "state changed behind our
  // back" (the latter forces a rebuild).
  synced_total_ = bank.total_observations();
}

void LazyTopKSelector::Rebuild(const EstimatorBank& bank, int k) {
  const int m = bank.num_arms();
  const double* counts = bank.counts().data();
  const double* bonus_bases = bank.bonus_bases().data();

  // Branch-free vectorized scan first (the same canonical association the
  // per-arm UcbValue uses, so the values are bit-identical), then a compact
  // pass that drops the cold arms (they live in the bank's cold list).
  bank.UcbValuesInto(&ucb_scratch_);
  const double* ucb = ucb_scratch_.data();
  scan_.clear();
  scan_.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    if (counts[idx] == 0.0) continue;
    scan_.push_back(Candidate{ucb[idx], i});
  }

  // Pool sizing: K winners plus a sqrt(M·K) margin — the margin amortizes
  // the O(M) rebuild over ~(P − K)/K rounds while the per-round rescan
  // stays O(P).
  const std::size_t warm = scan_.size();
  const int kk = std::max(k, 1);
  const std::size_t margin = std::max<std::size_t>(
      64, static_cast<std::size_t>(
              std::lround(std::sqrt(static_cast<double>(m) * kk))));
  const std::size_t target =
      std::min(warm, static_cast<std::size_t>(kk) + margin);

  if (warm > target) {
    std::nth_element(scan_.begin(),
                     scan_.begin() + static_cast<std::ptrdiff_t>(target),
                     scan_.end(), [](const Candidate& a, const Candidate& b) {
                       return RanksAheadOf(a.value, a.arm, b.value, b.arm);
                     });
    // scan_[target] is the best excluded candidate under the total order,
    // so its value is the outside maximum.
    outside_value_ = scan_[target].value;
  } else {
    outside_value_ = -std::numeric_limits<double>::infinity();
  }

  pool_.clear();
  pool_.reserve(target);
  for (std::size_t j = 0; j < target; ++j) pool_.push_back(scan_[j].arm);
  // Ascending order: cache-friendly column gathers on every rescan.
  std::sort(pool_.begin(), pool_.end());
  std::fill(in_pool_.begin(), in_pool_.end(), 0);
  for (int arm : pool_) in_pool_[static_cast<std::size_t>(arm)] = 1;

  // B = max bonus_base over the warm arms left outside the pool. A
  // sequential masked pass over the columns beats gathering through the
  // scan_[target..warm) permutation at large M.
  if (warm > target) {
    double bb = 0.0;
    for (int i = 0; i < m; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      if (!in_pool_[idx] && counts[idx] > 0.0) {
        bb = std::max(bb, bonus_bases[idx]);
      }
    }
    outside_bb_ = bb;
  } else {
    outside_bb_ = 0.0;
  }
  for (int arm : pending_) dirty_[static_cast<std::size_t>(arm)] = 0;
  pending_.clear();

  s_rebuild_ = bank.bonus_scalar();
  epoch_seen_ = bank.epoch();
  synced_total_ = bank.total_observations();
  initialized_ = true;
  ++full_rebuilds_;
}

double LazyTopKSelector::SelectFromPool(const EstimatorBank& bank,
                                        int need) {
  const double sl = bank.scaled_log();
  const double* means = bank.means().data();
  const double* counts = bank.counts().data();
  // Running top-`need` min-heap: front = worst kept candidate under
  // (value desc, arm asc).
  auto cand_cmp = [](const Candidate& a, const Candidate& b) {
    return RanksAheadOf(a.value, a.arm, b.value, b.arm);
  };
  best_.clear();
  for (int arm : pool_) {
    const std::size_t idx = static_cast<std::size_t>(arm);
    // Canonical Eq. (19) association, bit-identical to the full scan.
    const double exact = means[idx] + std::sqrt(sl / counts[idx]);
    if (static_cast<int>(best_.size()) < need) {
      best_.push_back(Candidate{exact, arm});
      std::push_heap(best_.begin(), best_.end(), cand_cmp);
    } else if (RanksAheadOf(exact, arm, best_.front().value,
                            best_.front().arm)) {
      std::pop_heap(best_.begin(), best_.end(), cand_cmp);
      best_.back() = Candidate{exact, arm};
      std::push_heap(best_.begin(), best_.end(), cand_cmp);
    }
  }
  entries_revalidated_ += static_cast<std::int64_t>(pool_.size());
  return best_.empty() ? -std::numeric_limits<double>::infinity()
                       : best_.front().value;
}

void LazyTopKSelector::SelectInto(const EstimatorBank& bank, int k,
                                  std::vector<int>* out) {
  const int m = bank.num_arms();
  if (static_cast<std::size_t>(m) > dirty_.size()) {
    in_pool_.resize(static_cast<std::size_t>(m), 0);
    dirty_.resize(static_cast<std::size_t>(m), 0);
  }
  const bool out_of_band = !initialized_ || bank.epoch() != epoch_seen_ ||
                           bank.total_observations() != synced_total_;
  bool rebuilt = false;
  if (out_of_band || pending_.size() * 4 >= static_cast<std::size_t>(m) ||
      pool_.size() * 2 >= static_cast<std::size_t>(m)) {
    // High invalidation density, a bloated pool, or a bank replaced behind
    // our back: one full scan is cheaper than nursing the pool along.
    Rebuild(bank, k);
    rebuilt = true;
  } else if (!pending_.empty()) {
    // Out-of-pool updated arms join the pool (their outside bound no
    // longer covers them); members are rescanned anyway.
    for (int arm : pending_) {
      const std::size_t idx = static_cast<std::size_t>(arm);
      dirty_[idx] = 0;
      if (!in_pool_[idx] && bank.counts()[idx] > 0.0) {
        in_pool_[idx] = 1;
        pool_.push_back(arm);
      }
    }
    pending_.clear();
  }

  out->clear();
  const int take = std::min(k, m);
  if (take <= 0) return;

  // Cold arms carry a +inf UCB with index-ascending tie-breaks: they rank
  // ahead of every warm arm, in ascending index order.
  const std::vector<int>& cold = bank.cold_arms();
  const int cold_take = std::min<int>(take, static_cast<int>(cold.size()));
  out->assign(cold.begin(), cold.begin() + cold_take);
  int need = take - cold_take;
  if (need == 0) return;

  if (!rebuilt && static_cast<int>(pool_.size()) < need) {
    // Can only happen when the rebuild's k was smaller than this call's:
    // the pool cannot cover the request.
    Rebuild(bank, k);
    rebuilt = true;
  }
  double worst = SelectFromPool(bank, need);
  if (!rebuilt) {
    // Outside bound: every non-pool warm arm kept (mean, bonus_base)
    // frozen since the rebuild, so its UCB at the current scalar s is at
    // most V + (s − s₀)·B. Strictly beating that bound (ties are unsafe:
    // an outside arm with an equal value could win its index tie-break)
    // proves the pool selection globally exact.
    const double outside_ub =
        outside_value_ +
        (bank.bonus_scalar() - s_rebuild_) * outside_bb_ + kSlack;
    if (!(worst > outside_ub)) {
      Rebuild(bank, k);
      worst = SelectFromPool(bank, need);
    }
  }
  (void)worst;

  std::sort(best_.begin(), best_.end(),
            [](const Candidate& a, const Candidate& b) {
              return RanksAheadOf(a.value, a.arm, b.value, b.arm);
            });
  for (const Candidate& c : best_) out->push_back(c.arm);
}

}  // namespace bandit
}  // namespace cdt
