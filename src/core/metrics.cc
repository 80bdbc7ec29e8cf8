#include "core/metrics.h"

namespace cdt {
namespace core {

using util::Result;
using util::Status;

Result<MetricsCollector> MetricsCollector::Create(
    std::vector<double> qualities, int k, int num_pois,
    std::vector<std::int64_t> checkpoints) {
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    if (checkpoints[i] <= checkpoints[i - 1]) {
      return Status::InvalidArgument("checkpoints must be ascending");
    }
  }
  Result<bandit::RegretTracker> tracker =
      bandit::RegretTracker::Create(std::move(qualities), k, num_pois);
  if (!tracker.ok()) return tracker.status();
  return MetricsCollector(std::move(tracker).value(), std::move(checkpoints));
}

Status MetricsCollector::Record(const market::RoundReport& report) {
  // Regret credits only the sellers whose data was actually accepted: a
  // voided round contributes zero revenue and corrupted reports earn
  // nothing, so faults show up as regret instead of phantom revenue.
  const std::vector<int> delivered = market::DeliveredDataSellers(report);
  CDT_RETURN_NOT_OK(tracker_.RecordRound(delivered));
  observed_revenue_extra_ += report.observed_quality_revenue;

  if (report.degraded) ++degraded_rounds_;
  if (report.voided) ++voided_rounds_;
  consumer_.Add(report.consumer_profit);
  platform_.Add(report.platform_profit);
  seller_total_.Add(report.seller_profit_total);
  if (!report.selected.empty()) {
    seller_each_.Add(report.seller_profit_total /
                     static_cast<double>(report.selected.size()));
  }
  if (keep_trajectories_) {
    consumer_traj_.push_back(report.consumer_profit);
    platform_traj_.push_back(report.platform_profit);
    seller_traj_.push_back(report.seller_profit_total);
  }
  if (next_checkpoint_ < checkpoint_rounds_.size() &&
      report.round == checkpoint_rounds_[next_checkpoint_]) {
    snapshots_.push_back(Snapshot());
    ++next_checkpoint_;
  }
  return Status::OK();
}

MetricsCheckpoint MetricsCollector::Snapshot() const {
  MetricsCheckpoint cp;
  cp.round = tracker_.rounds();
  cp.expected_revenue = tracker_.cumulative_expected_revenue();
  cp.observed_revenue = observed_revenue_extra_;
  cp.regret = tracker_.regret();
  cp.mean_consumer_profit = consumer_.mean();
  cp.mean_platform_profit = platform_.mean();
  cp.mean_seller_profit_total = seller_total_.mean();
  cp.mean_seller_profit_each = seller_each_.mean();
  return cp;
}

}  // namespace core
}  // namespace cdt
