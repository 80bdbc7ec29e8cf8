// Order statistics and the shard-FIFO completion tracker the benchmark
// uses to time events it cannot see finish individually.

#ifndef SVCBENCH_STATS_H_
#define SVCBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

namespace svcbench {

/// The q-quantile (q in [0, 1]) of `values` by linear interpolation between
/// the closest order statistics (the "type 7" rule of R and NumPy).
/// Returns NaN for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Number of samples strictly above the q-quantile — the benchmark reports
/// a tail percentile only together with how many samples lie beyond it.
inline std::size_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double cut = Percentile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

/// Times events on shards that only publish a processed-event counter.
///
/// A shard worker applies its queue strictly in FIFO order and bumps
/// `events_processed` once per event, so the k-th event accepted by a shard
/// has settled exactly when that shard's counter reaches base + k, where
/// base is the counter's value when tracking began. The tracker keeps, per
/// shard, the accepted-but-unsettled events in submission order and
/// releases every one whose position the observed counter has passed.
class CompletionTracker {
 public:
  /// `processed_at_start[s]`: shard s's processed counter when tracking
  /// begins (every earlier event must have settled already).
  explicit CompletionTracker(std::vector<std::uint64_t> processed_at_start)
      : next_position_(std::move(processed_at_start)),
        fifo_(next_position_.size()) {}

  /// Registers an event accepted by `shard`, due at `due_ns`; `tag` comes
  /// back from Observe when it settles.
  void Expect(int shard, std::int64_t due_ns, std::size_t tag) {
    const auto s = static_cast<std::size_t>(shard);
    fifo_[s].push_back({++next_position_[s], due_ns, tag});
  }

  /// Feeds one reading of `shard`'s processed counter taken at `now_ns`.
  /// Calls on_settled(tag, due_ns, now_ns) for each newly settled event, in
  /// FIFO order, and returns how many settled.
  template <typename OnSettled>
  int Observe(int shard, std::uint64_t processed, std::int64_t now_ns,
              OnSettled&& on_settled) {
    auto& queue = fifo_[static_cast<std::size_t>(shard)];
    int settled = 0;
    while (!queue.empty() && queue.front().position <= processed) {
      on_settled(queue.front().tag, queue.front().due_ns, now_ns);
      queue.pop_front();
      ++settled;
    }
    return settled;
  }

  std::size_t pending(int shard) const {
    return fifo_[static_cast<std::size_t>(shard)].size();
  }
  std::size_t pending() const {
    std::size_t total = 0;
    for (const auto& queue : fifo_) total += queue.size();
    return total;
  }

 private:
  struct Pending {
    std::uint64_t position;
    std::int64_t due_ns;
    std::size_t tag;
  };
  std::vector<std::uint64_t> next_position_;
  std::vector<std::deque<Pending>> fifo_;
};

}  // namespace svcbench

#endif  // SVCBENCH_STATS_H_
