#include "bandit/regret.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "bandit/arm.h"

namespace cdt {
namespace bandit {

using util::Result;
using util::Status;

Result<GapStatistics> ComputeGaps(const std::vector<double>& qualities,
                                  int k) {
  int m = static_cast<int>(qualities.size());
  if (k <= 0 || k >= m) {
    return Status::InvalidArgument(
        "gaps are defined for 1 <= K < M (every set is optimal when K == M)");
  }
  std::vector<double> sorted = qualities;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  GapStatistics gaps;
  // The best non-optimal set swaps the K-th best for the (K+1)-th best.
  gaps.delta_min = sorted[static_cast<std::size_t>(k - 1)] -
                   sorted[static_cast<std::size_t>(k)];
  double top = 0.0, bottom = 0.0;
  for (int i = 0; i < k; ++i) {
    top += sorted[static_cast<std::size_t>(i)];
    bottom += sorted[static_cast<std::size_t>(m - 1 - i)];
  }
  gaps.delta_max = top - bottom;
  return gaps;
}

RegretTracker::RegretTracker(std::vector<double> qualities, int k,
                             int num_pois, double optimal_round_revenue)
    : qualities_(std::move(qualities)),
      k_(k),
      num_pois_(num_pois),
      optimal_round_revenue_(optimal_round_revenue) {}

Result<RegretTracker> RegretTracker::Create(std::vector<double> qualities,
                                            int k, int num_pois) {
  if (qualities.empty()) {
    return Status::InvalidArgument("need >= 1 quality");
  }
  if (k <= 0 || static_cast<std::size_t>(k) > qualities.size()) {
    return Status::InvalidArgument("need 1 <= K <= M");
  }
  if (num_pois <= 0) {
    return Status::InvalidArgument("num_pois must be > 0");
  }
  // The K best in descending order, as a full sort would add them.
  double top = 0.0;
  for (int i : TopKIndices(qualities, k)) {
    top += qualities[static_cast<std::size_t>(i)];
  }
  return RegretTracker(std::move(qualities), k, num_pois,
                       static_cast<double>(num_pois) * top);
}

Status RegretTracker::RecordRound(const std::vector<int>& selected) {
  double sum = 0.0;
  for (int i : selected) {
    if (i < 0 || static_cast<std::size_t>(i) >= qualities_.size()) {
      return Status::OutOfRange("seller index out of range");
    }
    sum += qualities_[static_cast<std::size_t>(i)];
  }
  expected_revenue_ += static_cast<double>(num_pois_) * sum;
  ++rounds_;
  return Status::OK();
}

double RegretTracker::optimal_revenue() const {
  return optimal_round_revenue_ * static_cast<double>(rounds_);
}

double RegretTracker::regret() const {
  return optimal_revenue() - expected_revenue_;
}

double Lemma18CounterBound(int k, std::int64_t n, int l, double delta_min) {
  if (delta_min <= 0.0) return std::numeric_limits<double>::infinity();
  double kd = static_cast<double>(k);
  double ld = static_cast<double>(l);
  double nd = static_cast<double>(n);
  double log_nkl = std::log(std::max(nd * kd * ld, 2.0));
  double lead = 4.0 * kd * kd * (kd + 1.0) * log_nkl / (delta_min * delta_min);
  // π²/(3 K^{2K+1} L^{K+2}) in log space to avoid overflow for large K.
  double log_tail = std::log(M_PI * M_PI / 3.0) -
                    (2.0 * kd + 1.0) * std::log(kd) -
                    (kd + 2.0) * std::log(ld);
  double tail = std::exp(log_tail);
  return lead + 1.0 + tail;
}

double Theorem19RegretBound(int m, int k, std::int64_t n, int l,
                            const GapStatistics& gaps) {
  return static_cast<double>(m) * gaps.delta_max *
         Lemma18CounterBound(k, n, l, gaps.delta_min);
}

}  // namespace bandit
}  // namespace cdt
