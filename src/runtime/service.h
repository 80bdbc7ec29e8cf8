// MarketplaceService: the long-running front door of the runtime. Routes
// every event to the shard owning its marketplace (FNV-1a over the id),
// applies admission control before anything touches a queue, and owns the
// worker fleet plus its supervisor.
//
// Admission control, in order:
//   1. capacity gate  — max_marketplaces caps concurrent marketplaces
//                       (creates past the cap shed, reason "capacity");
//   2. state gate     — events for budget-stopped / done / quarantined /
//                       closed marketplaces shed immediately (reason =
//                       state name) without occupying a queue slot — the
//                       budget-aware extension of the engine's kBudgetStop;
//   3. bounded queue  — a full shard queue sheds per ShedPolicy:
//                       kRejectNewest drops the event (reason "overload"),
//                       kCoalesceTicks parks round ticks for merged
//                       execution later (nothing lost, "coalesced"),
//                       kBlock waits up to 100 ms for space, then sheds
//                       (reason "timeout").
//
// Every shed is counted in cdt_runtime_shed_total{reason} and in the
// per-reason map GetStats() returns, so overload behaviour is exact and
// testable, never silent.

#ifndef CDT_RUNTIME_SERVICE_H_
#define CDT_RUNTIME_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/durability.h"
#include "runtime/event.h"
#include "runtime/shard.h"
#include "runtime/supervisor.h"
#include "util/status.h"

namespace cdt {
namespace runtime {

class MarketplaceService {
 public:
  enum class ShedPolicy { kRejectNewest, kCoalesceTicks, kBlock };

  struct Options {
    int num_shards = 4;
    std::size_t queue_capacity = 256;
    /// WAL directory (created if missing).
    std::string wal_dir;
    /// Rounds between per-marketplace checkpoints; 0 disables.
    std::int64_t snapshot_every = 0;
    /// Per-marketplace durability breaker / compaction knobs.
    DurabilityGuard::Tuning durability;
    /// Scrub the WAL directory before opening it: removes orphan .tmp
    /// files, truncates torn log tails, quarantines irreparable
    /// artifacts. Counted in cdt_persist_scrub_* metrics.
    bool scrub_on_start = true;
    std::int64_t max_rounds_per_dispatch = 64;
    ShedPolicy shed_policy = ShedPolicy::kRejectNewest;
    /// Concurrent marketplaces the service admits; 0 = unlimited.
    int max_marketplaces = 0;
    std::chrono::milliseconds stall_threshold{500};
    /// Watchdog sweep period; 0 disables the background watchdog (tests
    /// drive supervisor().PollOnce() themselves).
    std::chrono::milliseconds watchdog_period{50};
    /// Start worker threads in Create. Off lets tests submit a burst
    /// single-threaded for exact admission accounting, then Start().
    bool autostart = true;
  };

  enum class Admission {
    kAccepted,   // enqueued to the owning shard
    kCoalesced,  // round tick parked for merged execution (not lost)
    kShed,       // dropped; reason counted
  };

  static util::Result<std::unique_ptr<MarketplaceService>> Create(
      Options options);
  ~MarketplaceService();
  MarketplaceService(const MarketplaceService&) = delete;
  MarketplaceService& operator=(const MarketplaceService&) = delete;

  /// Starts workers + watchdog (idempotent).
  void Start();

  /// Admission-controlled submit; under kBlock it waits at most 100 ms
  /// for queue space, and it never blocks otherwise.
  Admission Submit(Event event);

  /// Graceful shutdown: stop admitting, drain every queue (workers seal
  /// all WALs), stop the watchdog. Idempotent.
  void Drain();

  /// Owning shard of a marketplace id (FNV-1a 64 mod num_shards).
  int ShardFor(const std::string& marketplace) const;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t coalesced_rounds = 0;
    /// Sheds by reason (admission- and worker-side combined).
    std::map<std::string, std::uint64_t> shed;
    std::uint64_t total_shed = 0;
    std::uint64_t events_processed = 0;
    std::uint64_t rounds_settled = 0;
    std::uint64_t restarts = 0;
    std::uint64_t stalls = 0;
    std::vector<ShardStats> shards;
    /// Startup-scrub results for this service's WAL directory.
    std::uint64_t scrub_repaired = 0;
    std::uint64_t scrub_quarantined = 0;
    std::uint64_t scrub_version_skew = 0;
    std::uint64_t scrub_orphans_removed = 0;
    /// Process-wide durability breaker totals (all services combined).
    DurabilityTotals durability;
  };
  Stats GetStats() const;

  /// Chaos/test access.
  ShardWorker& shard(int index) { return *shards_[index]; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  Supervisor& supervisor() { return *supervisor_; }
  StateDirectory& directory() { return directory_; }
  TickCoalescer& coalescer() { return coalescer_; }
  const Options& options() const { return options_; }

 private:
  explicit MarketplaceService(Options options);

  void CountShed(const std::string& reason);

  Options options_;
  TickCoalescer coalescer_;
  StateDirectory directory_;
  std::vector<std::unique_ptr<ShardWorker>> shards_;
  std::unique_ptr<Supervisor> supervisor_;

  std::atomic<bool> started_{false};
  std::atomic<bool> drained_{false};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  /// Concurrent-marketplace accounting for the capacity gate (counted at
  /// admission: creates in, closes out).
  std::atomic<int> admitted_marketplaces_{0};

  mutable std::mutex shed_mu_;
  std::map<std::string, std::uint64_t> shed_by_reason_;

  /// Startup-scrub tallies (set once in Create, before workers exist).
  std::uint64_t scrub_repaired_ = 0;
  std::uint64_t scrub_quarantined_ = 0;
  std::uint64_t scrub_version_skew_ = 0;
  std::uint64_t scrub_orphans_removed_ = 0;
};

}  // namespace runtime
}  // namespace cdt

#endif  // CDT_RUNTIME_SERVICE_H_
