// Streaming per-run metric collection: cumulative revenue & regret plus
// per-party profit summaries, with optional checkpointing at designated
// rounds (used to plot one long run as a series over N).

#ifndef CDT_CORE_METRICS_H_
#define CDT_CORE_METRICS_H_

#include <cstdint>
#include <vector>

#include "bandit/regret.h"
#include "market/types.h"
#include "stats/summary.h"
#include "util/status.h"

namespace cdt {
namespace core {

/// A snapshot of cumulative metrics after some round.
struct MetricsCheckpoint {
  std::int64_t round = 0;
  double expected_revenue = 0.0;
  double observed_revenue = 0.0;
  double regret = 0.0;
  double mean_consumer_profit = 0.0;   // avg PoC per round so far
  double mean_platform_profit = 0.0;   // avg PoP per round so far
  double mean_seller_profit_total = 0.0;
  double mean_seller_profit_each = 0.0;  // avg PoS per selected seller
};

/// Consumes RoundReports and accumulates revenue/regret/profit statistics.
class MetricsCollector {
 public:
  /// `qualities` are ground-truth expected qualities (for regret), k is the
  /// oracle selection size, num_pois is L. `checkpoints` (ascending rounds,
  /// may be empty) trigger stored snapshots.
  static util::Result<MetricsCollector> Create(
      std::vector<double> qualities, int k, int num_pois,
      std::vector<std::int64_t> checkpoints = {});

  /// Feeds one round.
  util::Status Record(const market::RoundReport& report);

  std::int64_t rounds() const { return tracker_.rounds(); }
  double expected_revenue() const {
    return tracker_.cumulative_expected_revenue();
  }
  double observed_revenue() const { return observed_revenue_extra_; }
  double regret() const { return tracker_.regret(); }

  const stats::RunningSummary& consumer_profit() const { return consumer_; }
  const stats::RunningSummary& platform_profit() const { return platform_; }
  const stats::RunningSummary& seller_profit_total() const {
    return seller_total_;
  }
  const stats::RunningSummary& seller_profit_each() const {
    return seller_each_;
  }

  /// Per-round profit trajectories (kept only when `keep_trajectories` was
  /// enabled; used by the Δ-profit comparison).
  void set_keep_trajectories(bool keep) { keep_trajectories_ = keep; }
  const std::vector<double>& consumer_trajectory() const {
    return consumer_traj_;
  }
  const std::vector<double>& platform_trajectory() const {
    return platform_traj_;
  }
  const std::vector<double>& seller_trajectory() const {
    return seller_traj_;
  }

  const std::vector<MetricsCheckpoint>& checkpoints() const {
    return snapshots_;
  }

  // --- fault / degradation accounting -------------------------------
  // Per-kind fault totals are the engine's (TradingEngine::fault_count),
  // and so are per-seller tallies (TradingEngine::reliability).
  std::int64_t degraded_rounds() const { return degraded_rounds_; }
  std::int64_t voided_rounds() const { return voided_rounds_; }

  /// Builds a checkpoint of the current cumulative state.
  MetricsCheckpoint Snapshot() const;

 private:
  MetricsCollector(bandit::RegretTracker tracker,
                   std::vector<std::int64_t> checkpoints)
      : tracker_(std::move(tracker)),
        checkpoint_rounds_(std::move(checkpoints)) {}

  bandit::RegretTracker tracker_;
  double observed_revenue_extra_ = 0.0;
  std::int64_t degraded_rounds_ = 0;
  std::int64_t voided_rounds_ = 0;
  std::vector<std::int64_t> checkpoint_rounds_;
  std::size_t next_checkpoint_ = 0;
  std::vector<MetricsCheckpoint> snapshots_;

  stats::RunningSummary consumer_;
  stats::RunningSummary platform_;
  stats::RunningSummary seller_total_;
  stats::RunningSummary seller_each_;

  bool keep_trajectories_ = false;
  std::vector<double> consumer_traj_;
  std::vector<double> platform_traj_;
  std::vector<double> seller_traj_;
};

}  // namespace core
}  // namespace cdt

#endif  // CDT_CORE_METRICS_H_
