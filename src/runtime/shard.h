// ShardWorker: one supervised worker thread owning a bounded event queue
// and every marketplace whose id hashes to it. The worker is the only
// thread that touches its marketplaces — cross-thread surface is limited
// to the queue, atomics (heartbeat, counters), the state directory and
// the tick coalescer, so per-marketplace execution needs no locks and
// stays strictly FIFO (the determinism contract of event.h).
//
// Supervision surface: a monotone heartbeat the watchdog ages, a crashed
// flag the watchdog restarts on, and lazy WAL recovery — a restarted
// worker holds no marketplaces; the first event addressed to an id with a
// WAL on disk rebuilds it via HostedMarketplace::Recover. Recovery of a
// crash-looping marketplace is gated by the ReliabilityTracker breaker
// (closed → open after consecutive failed recoveries → cooldown →
// probation), reusing the engine's seller-quarantine pattern one level up.
//
// Chaos hooks (ArmKillAfter / ArmStallAfter) fire at event boundaries
// only, so an injected crash never half-applies an event — the invariant
// the byte-identity chaos harness rests on.

#ifndef CDT_RUNTIME_SHARD_H_
#define CDT_RUNTIME_SHARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "market/faults.h"
#include "obs/metrics.h"
#include "runtime/event.h"
#include "runtime/marketplace.h"
#include "runtime/queue.h"
#include "util/status.h"

namespace cdt {
namespace runtime {

/// Admission-side tick deferral (the kCoalesceTicks shed policy): when a
/// shard queue is full, a round tick is not dropped but parked here; the
/// worker claims parked rounds the next time it executes rounds for the
/// marketplace. Rounds are deferred and merged, never lost.
class TickCoalescer {
 public:
  void Defer(const std::string& marketplace, std::int64_t rounds);
  /// Returns and clears the parked rounds for `marketplace`.
  std::int64_t Claim(const std::string& marketplace);
  /// Rounds currently parked across all marketplaces.
  std::int64_t pending() const;
  /// Cumulative rounds ever deferred.
  std::int64_t total_deferred() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::int64_t> pending_;
  std::int64_t total_deferred_ = 0;
};

/// Marketplace states published by workers for the admission path (the
/// service sheds events to budget-stopped / quarantined / finished
/// marketplaces without occupying queue slots).
class StateDirectory {
 public:
  void Publish(const std::string& marketplace, HostedMarketplace::State state);
  /// False when the marketplace is unknown (never created or not yet
  /// published); `*state` is untouched then.
  bool Lookup(const std::string& marketplace,
              HostedMarketplace::State* state) const;
  int CountInState(HostedMarketplace::State state) const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, HostedMarketplace::State> states_;
};

/// Cross-thread snapshot of one shard's health and throughput.
struct ShardStats {
  int index = 0;
  bool running = false;
  bool crashed = false;
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t rounds_settled = 0;
  std::uint64_t event_errors = 0;
  std::uint64_t shed_by_worker = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t restarts = 0;
};

class ShardWorker {
 public:
  struct Options {
    int index = 0;
    std::size_t queue_capacity = 256;
    HostedMarketplace::Options marketplace;
    /// Max trading rounds one dispatch executes before re-beating the
    /// heartbeat (deadline-bounded round processing). <= 0 = unbounded.
    std::int64_t max_rounds_per_dispatch = 64;
    /// Shared admission-side structures, owned by the service. The
    /// coalescer is null unless the service coalesces ticks.
    TickCoalescer* coalescer = nullptr;
    StateDirectory* directory = nullptr;
  };

  explicit ShardWorker(Options options);
  ~ShardWorker();
  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Spawns the worker thread (idempotent while running).
  void Start();

  /// Closes the queue: the worker drains every admitted event, seals the
  /// WAL of each live marketplace, then exits.
  void RequestDrain();

  /// Joins the worker thread if joinable.
  void Join();

  /// Supervisor restart after a crash: joins the dead thread and spawns a
  /// fresh one over the same queue. Marketplace state rebuilds lazily
  /// from WALs as events arrive.
  void Restart();

  EventQueue& queue() { return queue_; }
  int index() const { return options_.index; }

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Monotone beat counter and the steady-clock age of the latest beat.
  std::uint64_t heartbeat() const {
    return beats_.load(std::memory_order_acquire);
  }
  std::chrono::milliseconds heartbeat_age() const;

  // --- chaos hooks (arm before Start; fire at event boundaries) --------
  /// Simulate a crash after `events` processed events: the thread dies,
  /// in-memory marketplaces are wiped, WALs are left torn. 0 disarms.
  void ArmKillAfter(std::uint64_t events);
  /// Stall (sleep) once for `duration` after `events` processed events.
  void ArmStallAfter(std::uint64_t events, std::chrono::milliseconds duration);

  ShardStats Stats() const;

 private:
  void Run();
  void Beat();
  void ProcessEvent(const Event& event);
  /// Recover with capped-backoff IO retries, gated by the crash-loop
  /// breaker. Returns nullptr when there is no WAL, or recovery fails or
  /// is gated (the event is shed).
  HostedMarketplace* RecoverMarketplace(const std::string& id);
  void PublishState(const std::string& id, HostedMarketplace::State state);

  Options options_;
  EventQueue queue_;
  std::thread thread_;

  // Worker-thread-only state.
  std::map<std::string, std::unique_ptr<HostedMarketplace>> marketplaces_;
  /// Crash-loop breaker (1 "seller" = the marketplace) of each
  /// marketplace whose recovery from a WAL on disk has failed; the "round"
  /// it is fed is the shard's event sequence number.
  std::unordered_map<std::string,
                     std::unique_ptr<market::ReliabilityTracker>>
      breakers_;

  // Cross-thread state.
  std::atomic<bool> running_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::int64_t> last_beat_ns_{0};
  std::atomic<std::uint64_t> events_processed_{0};
  std::atomic<std::uint64_t> rounds_settled_{0};
  std::atomic<std::uint64_t> event_errors_{0};
  std::atomic<std::uint64_t> shed_by_worker_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> kill_after_{0};
  std::atomic<std::uint64_t> stall_after_{0};
  std::atomic<std::int64_t> stall_ms_{0};

  // Metric handles (label {"shard": index}); resolved once, stable.
  obs::Counter* events_metric_;
  obs::Counter* rounds_metric_;
  obs::Counter* errors_metric_;
  obs::Counter* recoveries_metric_;
  obs::Gauge* queue_depth_metric_;
  obs::Gauge* marketplaces_metric_;
  obs::Gauge* quarantined_metric_;
  obs::Histogram* dispatch_metric_;
};

}  // namespace runtime
}  // namespace cdt

#endif  // CDT_RUNTIME_SHARD_H_
