#include "runtime/service.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "obs/telemetry.h"
#include "persist/scrub.h"

namespace cdt {
namespace runtime {

using util::Result;
using util::Status;

namespace {

/// kBlock: how long Submit waits for queue space before it sheds.
constexpr std::chrono::milliseconds kBlockTimeout{100};

/// mkdir -p: nested WAL paths are valid (e.g. per-run subdirectories).
Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (!ec && std::filesystem::is_directory(path)) return Status::OK();
  return Status::IoError("cannot create WAL directory '" + path + "': " +
                         (ec ? ec.message() : "not a directory"));
}

obs::Counter* ShedMetric(const std::string& reason) {
  return obs::registry().GetCounter(
      "cdt_runtime_shed_total",
      "Events shed by admission or workers, by reason", {{"reason", reason}});
}

/// cdt_persist carries no obs dependency, so the runtime exports the
/// scrub results on the persistence layer's behalf.
void CountScrub(const persist::ScrubReport& report) {
  auto files = [](const char* result) {
    return obs::registry().GetCounter(
        "cdt_persist_scrub_files_total",
        "WAL artifacts scrubbed at service startup, by result",
        {{"result", result}});
  };
  files("clean")->Add(static_cast<double>(report.clean));
  files("repaired")->Add(static_cast<double>(report.repaired));
  files("quarantined")->Add(static_cast<double>(report.quarantined));
  files("version_skew")->Add(static_cast<double>(report.version_skew));
  obs::registry()
      .GetCounter("cdt_persist_scrub_orphans_removed_total",
                  "Orphaned atomic-write temp files removed by the scrubber")
      ->Add(static_cast<double>(report.orphan_temps_removed));
}

}  // namespace

MarketplaceService::MarketplaceService(Options options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<MarketplaceService>> MarketplaceService::Create(
    Options options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.wal_dir.empty()) {
    return Status::InvalidArgument("MarketplaceService needs a wal_dir");
  }
  CDT_RETURN_NOT_OK(EnsureDirectory(options.wal_dir));

  std::unique_ptr<MarketplaceService> service(
      new MarketplaceService(std::move(options)));
  const Options& opts = service->options_;

  if (opts.scrub_on_start) {
    // Self-heal the WAL directory before any writer opens it: sweep
    // orphaned .tmp files, truncate torn log tails, quarantine anything
    // irreparable so recovery fails loudly (NotFound) instead of
    // replaying poison. Single-threaded here — no writer races.
    auto scrubbed = persist::ScrubWalDirectory(opts.wal_dir, {});
    CDT_RETURN_NOT_OK(scrubbed.status());
    const persist::ScrubReport& report = scrubbed.value();
    service->scrub_repaired_ = static_cast<std::uint64_t>(report.repaired);
    service->scrub_quarantined_ =
        static_cast<std::uint64_t>(report.quarantined);
    service->scrub_version_skew_ =
        static_cast<std::uint64_t>(report.version_skew);
    service->scrub_orphans_removed_ =
        static_cast<std::uint64_t>(report.orphan_temps_removed);
    CountScrub(report);
  }

  for (int i = 0; i < opts.num_shards; ++i) {
    ShardWorker::Options shard_options;
    shard_options.index = i;
    shard_options.queue_capacity = opts.queue_capacity;
    shard_options.marketplace.wal_dir = opts.wal_dir;
    shard_options.marketplace.snapshot_every = opts.snapshot_every;
    shard_options.marketplace.durability = opts.durability;
    shard_options.max_rounds_per_dispatch = opts.max_rounds_per_dispatch;
    shard_options.coalescer =
        opts.shed_policy == ShedPolicy::kCoalesceTicks ? &service->coalescer_
                                                       : nullptr;
    shard_options.directory = &service->directory_;
    service->shards_.push_back(
        std::make_unique<ShardWorker>(std::move(shard_options)));
  }
  std::vector<ShardWorker*> supervised;
  supervised.reserve(service->shards_.size());
  for (auto& shard : service->shards_) supervised.push_back(shard.get());
  Supervisor::Options supervisor_options;
  supervisor_options.stall_threshold = opts.stall_threshold;
  service->supervisor_ = std::make_unique<Supervisor>(
      std::move(supervised), supervisor_options);

  if (opts.autostart) service->Start();
  return service;
}

MarketplaceService::~MarketplaceService() { Drain(); }

void MarketplaceService::Start() {
  if (started_.exchange(true)) return;
  for (auto& shard : shards_) shard->Start();
  if (options_.watchdog_period.count() > 0) {
    supervisor_->StartWatchdog(options_.watchdog_period);
  }
}

int MarketplaceService::ShardFor(const std::string& marketplace) const {
  // FNV-1a 64: cheap, deterministic, stable across runs — the routing key
  // is part of the replay contract (same id → same shard → same queue).
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : marketplace) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<int>(hash % static_cast<std::uint64_t>(
                                     shards_.size()));
}

void MarketplaceService::CountShed(const std::string& reason) {
  ShedMetric(reason)->Increment();
  std::lock_guard<std::mutex> lock(shed_mu_);
  ++shed_by_reason_[reason];
}

MarketplaceService::Admission MarketplaceService::Submit(Event event) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (drained_.load(std::memory_order_acquire)) {
    CountShed("closed");
    return Admission::kShed;
  }

  // 1. Capacity gate.
  if (event.type == EventType::kCreateMarketplace) {
    if (event.spec == nullptr) {
      CountShed("invalid");
      return Admission::kShed;
    }
    if (options_.max_marketplaces > 0) {
      int current = admitted_marketplaces_.load(std::memory_order_relaxed);
      for (;;) {
        if (current >= options_.max_marketplaces) {
          CountShed("capacity");
          return Admission::kShed;
        }
        if (admitted_marketplaces_.compare_exchange_weak(
                current, current + 1, std::memory_order_relaxed)) {
          break;
        }
      }
    } else {
      admitted_marketplaces_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // 2. State gate — budget-aware backpressure: events addressed to a
  // marketplace that can no longer trade are shed before they cost a
  // queue slot.
  HostedMarketplace::State state;
  if (event.type != EventType::kCreateMarketplace &&
      directory_.Lookup(event.marketplace, &state) &&
      state != HostedMarketplace::State::kActive) {
    if (event.type == EventType::kCloseMarketplace &&
        state != HostedMarketplace::State::kClosed) {
      // Closes still flow: sealing a stopped marketplace's WAL is valid.
    } else {
      CountShed(state == HostedMarketplace::State::kBudgetStopped
                    ? "budget"
                    : HostedMarketplace::StateName(state));
      return Admission::kShed;
    }
  }

  // 3. Bounded queue + shed policy.
  const bool is_tick = event.type == EventType::kRoundTick ||
                       event.type == EventType::kConsumerDemand;
  const std::string marketplace = event.marketplace;
  const std::int64_t rounds =
      event.type == EventType::kRoundTick ? 1 : event.rounds;
  const bool is_create = event.type == EventType::kCreateMarketplace;
  const bool is_close = event.type == EventType::kCloseMarketplace;
  EventQueue& queue = shards_[static_cast<std::size_t>(
                                  ShardFor(marketplace))]
                          ->queue();

  EventQueue::PushResult pushed;
  if (options_.shed_policy == ShedPolicy::kBlock) {
    pushed = queue.PushWithTimeout(std::move(event), kBlockTimeout);
  } else {
    pushed = queue.TryPush(std::move(event));
  }

  switch (pushed) {
    case EventQueue::PushResult::kAccepted:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      if (is_close) {
        admitted_marketplaces_.fetch_sub(1, std::memory_order_relaxed);
      }
      return Admission::kAccepted;
    case EventQueue::PushResult::kClosed:
      if (is_create) {
        admitted_marketplaces_.fetch_sub(1, std::memory_order_relaxed);
      }
      CountShed("closed");
      return Admission::kShed;
    case EventQueue::PushResult::kFull:
      break;
  }

  // Queue full.
  if (is_create) {
    admitted_marketplaces_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (options_.shed_policy == ShedPolicy::kCoalesceTicks && is_tick) {
    coalescer_.Defer(marketplace, rounds);
    obs::registry()
        .GetCounter("cdt_runtime_ticks_coalesced_total",
                    "Round ticks parked for merged execution under "
                    "queue pressure")
        ->Add(static_cast<double>(rounds));
    return Admission::kCoalesced;
  }
  CountShed(options_.shed_policy == ShedPolicy::kBlock ? "timeout"
                                                       : "overload");
  return Admission::kShed;
}

void MarketplaceService::Drain() {
  if (drained_.exchange(true)) return;
  for (auto& shard : shards_) shard->RequestDrain();
  // A crashed shard would strand its queued events, and a shard can still
  // crash *during* the drain (after any single sweep): keep sweeping until
  // every worker has exited cleanly over an empty queue. The crash-loop
  // breaker sheds events of marketplaces that fail repeatedly, so each
  // restart makes progress; the deadline is a last-resort bound.
  if (supervisor_ != nullptr) {
    supervisor_->StopWatchdog();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
      supervisor_->PollOnce();
      bool quiet = true;
      for (auto& shard : shards_) {
        if (shard->running() || shard->crashed() ||
            shard->queue().size() > 0) {
          quiet = false;
          break;
        }
      }
      if (quiet || std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (auto& shard : shards_) shard->Join();
}

MarketplaceService::Stats MarketplaceService::GetStats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.coalesced_rounds =
      static_cast<std::uint64_t>(coalescer_.total_deferred());
  {
    std::lock_guard<std::mutex> lock(shed_mu_);
    stats.shed = shed_by_reason_;
  }
  for (const auto& entry : stats.shed) stats.total_shed += entry.second;
  for (const auto& shard : shards_) {
    ShardStats shard_stats = shard->Stats();
    stats.events_processed += shard_stats.events_processed;
    stats.rounds_settled += shard_stats.rounds_settled;
    stats.total_shed += shard_stats.shed_by_worker;
    stats.shards.push_back(shard_stats);
  }
  if (supervisor_ != nullptr) {
    stats.restarts = supervisor_->total_restarts();
    stats.stalls = supervisor_->total_stalls();
  }
  stats.scrub_repaired = scrub_repaired_;
  stats.scrub_quarantined = scrub_quarantined_;
  stats.scrub_version_skew = scrub_version_skew_;
  stats.scrub_orphans_removed = scrub_orphans_removed_;
  stats.durability = GlobalDurabilityTotals();
  return stats;
}

}  // namespace runtime
}  // namespace cdt
