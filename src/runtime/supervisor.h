// Supervisor: the watchdog over a fleet of shard workers. Each sweep
// restarts crashed shards (their marketplaces rebuild lazily from WALs)
// and flags stalled ones — a shard whose heartbeat has not moved within
// the stall threshold while it is supposedly running. Stalls are
// detected and counted, never killed: a stalled thread cannot be safely
// terminated from outside, and the chaos harness's injected stalls end on
// their own, which is exactly the "slow but alive" case the heartbeat
// age distinguishes from a crash.
//
// PollOnce() is the whole policy — tests drive it directly for
// determinism; StartWatchdog() runs it on a background cadence for the
// live service.

#ifndef CDT_RUNTIME_SUPERVISOR_H_
#define CDT_RUNTIME_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/shard.h"

namespace cdt {
namespace runtime {

class Supervisor {
 public:
  struct Options {
    /// Heartbeat age past which a running shard counts as stalled.
    std::chrono::milliseconds stall_threshold{500};
  };

  /// What one sweep did.
  struct SweepReport {
    int restarted = 0;
    /// Shards newly entering the stalled state this sweep.
    int stalled = 0;
    /// Shards currently stalled (entered this sweep or earlier).
    int currently_stalled = 0;
  };

  /// Borrows the shards; they must outlive the supervisor.
  Supervisor(std::vector<ShardWorker*> shards, Options options);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// One watchdog sweep: restart crashed shards, update stall flags and
  /// the per-shard heartbeat-age gauges.
  SweepReport PollOnce();

  /// Runs PollOnce every `period` on a background thread.
  void StartWatchdog(std::chrono::milliseconds period);
  void StopWatchdog();

  std::uint64_t total_restarts() const {
    return total_restarts_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_stalls() const {
    return total_stalls_.load(std::memory_order_relaxed);
  }

 private:
  Options options_;
  std::vector<ShardWorker*> shards_;
  /// Serializes sweeps (the watchdog thread vs. test-driven PollOnce).
  std::mutex sweep_mu_;
  /// Sticky per-shard stall flag: a stall is counted once per episode.
  std::vector<bool> in_stall_;

  std::atomic<std::uint64_t> total_restarts_{0};
  std::atomic<std::uint64_t> total_stalls_{0};

  std::thread watchdog_;
  std::atomic<bool> stop_watchdog_{false};
};

}  // namespace runtime
}  // namespace cdt

#endif  // CDT_RUNTIME_SUPERVISOR_H_
