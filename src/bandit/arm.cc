#include "bandit/arm.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/confidence.h"

namespace cdt {
namespace bandit {

using util::Result;
using util::Status;

namespace {

/// True when candidate (va, a) ranks ahead of (vb, b) under the selection
/// order: descending value, ascending index on ties.
inline bool RanksAhead(double va, int a, double vb, int b) {
  if (va != vb) return va > vb;
  return a < b;
}

}  // namespace

void TopKIndicesInto(const std::vector<double>& values, int k,
                     std::vector<int>* out) {
  std::vector<int>& best = *out;
  const int m = static_cast<int>(values.size());
  const int take = std::min(k, m);
  if (take <= 0) {
    best.clear();
    return;
  }
  // Bounded heap-select: keep the running top-`take` in a heap whose front
  // is the *worst* kept entry (heap comparator = RanksAhead, so the heap
  // maximum under "ranks ahead" inverted sits at the front). A candidate
  // is examined against the front only — O(1) per non-entering candidate,
  // no full-M index permutation, no iota.
  auto heap_cmp = [&values](int a, int b) {
    return RanksAhead(values[static_cast<std::size_t>(a)], a,
                      values[static_cast<std::size_t>(b)], b);
  };
  best.resize(static_cast<std::size_t>(take));
  std::iota(best.begin(), best.begin() + take, 0);
  std::make_heap(best.begin(), best.end(), heap_cmp);
  for (int i = take; i < m; ++i) {
    const int worst = best.front();
    // A later index never displaces an equal value (ties rank by index),
    // so a strict value comparison suffices.
    if (values[static_cast<std::size_t>(i)] >
        values[static_cast<std::size_t>(worst)]) {
      std::pop_heap(best.begin(), best.end(), heap_cmp);
      best.back() = i;
      std::push_heap(best.begin(), best.end(), heap_cmp);
    }
  }
  std::sort(best.begin(), best.end(), heap_cmp);
}

std::vector<int> TopKIndices(const std::vector<double>& values, int k) {
  std::vector<int> order;
  TopKIndicesInto(values, k, &order);
  return order;
}

EstimatorBank::EstimatorBank(int num_arms, double exploration)
    : means_(static_cast<std::size_t>(num_arms), 0.0),
      observations_(static_cast<std::size_t>(num_arms), 0),
      counts_(static_cast<std::size_t>(num_arms), 0.0),
      cold_list_(static_cast<std::size_t>(num_arms)),
      num_unexplored_(num_arms),
      exploration_(exploration) {
  std::iota(cold_list_.begin(), cold_list_.end(), 0);
}

Result<EstimatorBank> EstimatorBank::Create(int num_arms,
                                            double exploration) {
  if (num_arms <= 0) {
    return Status::InvalidArgument("EstimatorBank requires >= 1 arm");
  }
  if (exploration <= 0.0) {
    return Status::InvalidArgument("exploration constant must be > 0");
  }
  return EstimatorBank(num_arms, exploration);
}

const std::vector<int>& EstimatorBank::cold_arms() const {
  if (static_cast<int>(cold_list_.size()) != num_unexplored_) {
    // Updates only flip arms warm, so compaction is a stable filter: the
    // surviving entries keep their ascending order.
    cold_list_.erase(
        std::remove_if(cold_list_.begin(), cold_list_.end(),
                       [this](int i) {
                         return observations_[static_cast<std::size_t>(i)] !=
                                0;
                       }),
        cold_list_.end());
    // Arms never turn cold again: once Algorithm 1's select-all round has
    // warmed them all, the M-entry list is released.
    if (cold_list_.empty()) cold_list_ = std::vector<int>();
  }
  return cold_list_;
}

double EstimatorBank::scaled_log() const {
  return exploration_ *
         std::log(
             std::max<double>(static_cast<double>(total_observations_), 2.0));
}

Status EstimatorBank::Update(int i, const std::vector<double>& observations) {
  if (i < 0 || i >= num_arms()) {
    return Status::OutOfRange("arm index " + std::to_string(i) +
                              " out of range");
  }
  if (observations.empty()) {
    return Status::InvalidArgument("empty observation batch");
  }
  for (double q : observations) {
    // Negated form so NaN (incomparable) is rejected with the range.
    if (!(q >= 0.0 && q <= 1.0)) {
      return Status::OutOfRange("quality observation outside [0, 1]");
    }
  }
  const std::size_t idx = static_cast<std::size_t>(i);
  // Eq. (18): q̄ <- (q̄ * n + Σ q_l) / (n + L); Eq. (17): n <- n + L.
  double batch_sum = 0.0;
  for (double q : observations) batch_sum += q;
  double n_old = counts_[idx];
  double n_new = n_old + static_cast<double>(observations.size());
  means_[idx] = (means_[idx] * n_old + batch_sum) / n_new;
  observations_[idx] += observations.size();
  counts_[idx] = n_new;
  if (n_old == 0.0) --num_unexplored_;  // cold_list_ compacts lazily
  total_observations_ += observations.size();
  ++update_seq_;
  return Status::OK();
}

Status EstimatorBank::Restore(const std::vector<ArmState>& arms,
                              std::uint64_t total_observations) {
  if (arms.size() != means_.size()) {
    return Status::InvalidArgument(
        "estimator restore arm count mismatch: have " +
        std::to_string(means_.size()) + ", snapshot has " +
        std::to_string(arms.size()));
  }
  std::uint64_t sum = 0;
  for (const ArmState& arm : arms) {
    if (!(arm.mean >= 0.0 && arm.mean <= 1.0)) {
      return Status::OutOfRange("restored arm mean outside [0, 1]");
    }
    if (arm.observations == 0 && arm.mean != 0.0) {
      return Status::InvalidArgument("unexplored arm with non-zero mean");
    }
    sum += arm.observations;
  }
  if (sum != total_observations) {
    return Status::InvalidArgument(
        "restored total_observations disagrees with per-arm counters");
  }
  cold_list_.clear();
  for (std::size_t i = 0; i < arms.size(); ++i) {
    means_[i] = arms[i].mean;
    observations_[i] = arms[i].observations;
    counts_[i] = static_cast<double>(arms[i].observations);
    if (arms[i].observations == 0) cold_list_.push_back(static_cast<int>(i));
  }
  cold_list_.shrink_to_fit();  // empty past the select-all round
  num_unexplored_ = static_cast<int>(cold_list_.size());
  total_observations_ = total_observations;
  ++update_seq_;  // incremental consumers must resynchronise
  return Status::OK();
}

double EstimatorBank::UcbValue(int i) const {
  const std::size_t idx = static_cast<std::size_t>(i);
  return means_.at(idx) + stats::UcbRadius(observations_.at(idx),
                                           total_observations_,
                                           exploration_);
}

std::vector<double> EstimatorBank::UcbValues() const {
  std::vector<double> out;
  UcbValuesInto(&out);
  return out;
}

void EstimatorBank::UcbValuesInto(std::vector<double>* out) const {
  const std::size_t m = means_.size();
  out->resize(m);
  // The radius is sqrt((c · ln T) / n_i) with c · ln T shared by every
  // arm; hoisting it keeps the scan bit-identical to the per-arm call
  // (same association: (c * log) / n) while doing one log instead of M.
  // The loop is branch-free over the columns: a cold arm has counts == 0.0
  // and mean == 0.0 (a Restore invariant), so sl / 0.0 == +inf reproduces
  // the unexplored sentinel without a per-element test.
  const double sl = scaled_log();
  const double* means = means_.data();
  const double* counts = counts_.data();
  double* dst = out->data();
  for (std::size_t i = 0; i < m; ++i) {
    dst[i] = means[i] + std::sqrt(sl / counts[i]);
  }
}

std::vector<int> EstimatorBank::TopKByUcb(int k) const {
  return TopKIndices(UcbValues(), k);
}

void EstimatorBank::TopKByUcbInto(int k, std::vector<double>* ucb_scratch,
                                  std::vector<int>* out) const {
  UcbValuesInto(ucb_scratch);
  TopKIndicesInto(*ucb_scratch, k, out);
}

std::vector<int> EstimatorBank::TopKByMean(int k) const {
  std::vector<int> out;
  TopKByMeanInto(k, &out);
  return out;
}

void EstimatorBank::TopKByMeanInto(int k, std::vector<int>* out) const {
  TopKIndicesInto(means_, k, out);
}

}  // namespace bandit
}  // namespace cdt
