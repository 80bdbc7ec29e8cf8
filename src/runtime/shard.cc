#include "runtime/shard.h"

#include <algorithm>
#include <utility>

#include "obs/telemetry.h"
#include "util/status.h"

namespace cdt {
namespace runtime {

using util::Status;
using util::StatusCode;

namespace {

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Queue wait per loop iteration, and so the heartbeat cadence when idle.
constexpr std::chrono::milliseconds kPopTimeout{20};

/// A recovery that fails with an IO error is tried this many times in all,
/// sleeping 5, then 10 ms between tries (doubling, capped at 50 ms).
constexpr int kRecoveryAttempts = 3;
constexpr std::chrono::milliseconds kRecoveryBackoff{5};
constexpr std::chrono::milliseconds kRecoveryBackoffCap{50};

/// Service-wide shed counter, labelled by reason (shared with service.cc
/// via the registry — same name + labels resolves to the same handle).
obs::Counter* ShedCounter(const char* reason) {
  return obs::registry().GetCounter(
      "cdt_runtime_shed_total",
      "Events shed by admission or workers, by reason",
      {{"reason", reason}});
}

}  // namespace

// --- TickCoalescer ------------------------------------------------------

void TickCoalescer::Defer(const std::string& marketplace,
                          std::int64_t rounds) {
  if (rounds <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_[marketplace] += rounds;
  total_deferred_ += rounds;
}

std::int64_t TickCoalescer::Claim(const std::string& marketplace) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(marketplace);
  if (it == pending_.end()) return 0;
  const std::int64_t rounds = it->second;
  pending_.erase(it);
  return rounds;
}

std::int64_t TickCoalescer::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto& entry : pending_) total += entry.second;
  return total;
}

std::int64_t TickCoalescer::total_deferred() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_deferred_;
}

// --- StateDirectory -----------------------------------------------------

void StateDirectory::Publish(const std::string& marketplace,
                             HostedMarketplace::State state) {
  std::lock_guard<std::mutex> lock(mu_);
  states_[marketplace] = state;
}

bool StateDirectory::Lookup(const std::string& marketplace,
                            HostedMarketplace::State* state) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = states_.find(marketplace);
  if (it == states_.end()) return false;
  *state = it->second;
  return true;
}

int StateDirectory::CountInState(HostedMarketplace::State state) const {
  std::lock_guard<std::mutex> lock(mu_);
  int count = 0;
  for (const auto& entry : states_) {
    if (entry.second == state) ++count;
  }
  return count;
}

// --- ShardWorker --------------------------------------------------------

ShardWorker::ShardWorker(Options options)
    : options_(std::move(options)), queue_(options_.queue_capacity) {
  const obs::LabelSet shard_label = {
      {"shard", std::to_string(options_.index)}};
  obs::MetricsRegistry& registry = obs::registry();
  events_metric_ = registry.GetCounter(
      "cdt_runtime_events_total", "Events processed by the shard worker",
      shard_label);
  rounds_metric_ = registry.GetCounter(
      "cdt_runtime_rounds_total", "Trading rounds settled by the shard",
      shard_label);
  errors_metric_ = registry.GetCounter(
      "cdt_runtime_event_errors_total",
      "Events whose application failed (marketplace quarantined)",
      shard_label);
  recoveries_metric_ = registry.GetCounter(
      "cdt_runtime_recoveries_total",
      "Marketplaces rebuilt from their WAL after a crash", shard_label);
  queue_depth_metric_ = registry.GetGauge(
      "cdt_runtime_queue_depth", "Events waiting in the shard queue",
      shard_label);
  marketplaces_metric_ = registry.GetGauge(
      "cdt_runtime_marketplaces_active",
      "Live marketplaces owned by the shard", shard_label);
  quarantined_metric_ = registry.GetGauge(
      "cdt_runtime_marketplaces_quarantined",
      "Marketplaces isolated after an engine failure", shard_label);
  dispatch_metric_ = registry.GetHistogram(
      "cdt_runtime_event_dispatch_seconds",
      "Wall time spent applying one event", obs::DefaultLatencyBuckets(),
      shard_label);
  Beat();
}

ShardWorker::~ShardWorker() {
  RequestDrain();
  Join();
}

void ShardWorker::Start() {
  if (running_.load(std::memory_order_acquire)) return;
  Join();
  crashed_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  Beat();
  thread_ = std::thread([this] { Run(); });
}

void ShardWorker::RequestDrain() { queue_.Close(); }

void ShardWorker::Join() {
  if (thread_.joinable()) thread_.join();
}

void ShardWorker::Restart() {
  if (!crashed_.load(std::memory_order_acquire)) return;
  Join();
  restarts_.fetch_add(1, std::memory_order_relaxed);
  obs::registry()
      .GetCounter("cdt_runtime_restarts_total",
                  "Crashed shard workers restarted by the supervisor",
                  {{"shard", std::to_string(options_.index)}})
      ->Increment();
  Start();
}

std::chrono::milliseconds ShardWorker::heartbeat_age() const {
  const std::int64_t last = last_beat_ns_.load(std::memory_order_acquire);
  const std::int64_t age_ns = SteadyNowNs() - last;
  return std::chrono::milliseconds(std::max<std::int64_t>(0, age_ns) /
                                   1000000);
}

void ShardWorker::ArmKillAfter(std::uint64_t events) {
  kill_after_.store(events, std::memory_order_release);
}

void ShardWorker::ArmStallAfter(std::uint64_t events,
                                std::chrono::milliseconds duration) {
  stall_ms_.store(duration.count(), std::memory_order_release);
  stall_after_.store(events, std::memory_order_release);
}

ShardStats ShardWorker::Stats() const {
  ShardStats stats;
  stats.index = options_.index;
  stats.running = running();
  stats.crashed = crashed();
  stats.queue_depth = queue_.size();
  stats.queue_high_water = queue_.high_water();
  stats.events_processed = events_processed_.load(std::memory_order_relaxed);
  stats.rounds_settled = rounds_settled_.load(std::memory_order_relaxed);
  stats.event_errors = event_errors_.load(std::memory_order_relaxed);
  stats.shed_by_worker = shed_by_worker_.load(std::memory_order_relaxed);
  stats.recoveries = recoveries_.load(std::memory_order_relaxed);
  stats.restarts = restarts_.load(std::memory_order_relaxed);
  return stats;
}

void ShardWorker::Beat() {
  beats_.fetch_add(1, std::memory_order_release);
  last_beat_ns_.store(SteadyNowNs(), std::memory_order_release);
}

void ShardWorker::PublishState(const std::string& id,
                               HostedMarketplace::State state) {
  options_.directory->Publish(id, state);
}

HostedMarketplace* ShardWorker::RecoverMarketplace(const std::string& id) {
  const auto seq = static_cast<std::int64_t>(
      events_processed_.load(std::memory_order_relaxed));
  auto breaker = breakers_.find(id);
  if (breaker != breakers_.end() && !breaker->second->Available(0, seq)) {
    // Crash-looping marketplace cooling down: shed instead of burning the
    // worker on recovery attempts that keep failing.
    breaker->second->RecordQuarantineDrop(0);
    ShedCounter("crashloop")->Increment();
    shed_by_worker_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  std::chrono::milliseconds backoff = kRecoveryBackoff;
  Status status;
  for (int attempt = 0; attempt < kRecoveryAttempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, kRecoveryBackoffCap);
      Beat();
    }
    auto recovered = HostedMarketplace::Recover(id, options_.marketplace);
    if (recovered.ok()) {
      if (breaker != breakers_.end()) {
        breaker->second->RecordDelivery(0, seq, /*partial=*/false);
      }
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      recoveries_metric_->Increment();
      HostedMarketplace* marketplace = recovered.value().get();
      marketplaces_[id] = std::move(recovered).value();
      PublishState(id, marketplace->state());
      return marketplace;
    }
    status = recovered.status();
    // Only IO errors are worth retrying — a parse error or divergence is
    // deterministic and will fail identically on every attempt.
    if (status.code() != StatusCode::kIoError) break;
  }
  shed_by_worker_.fetch_add(1, std::memory_order_relaxed);
  if (status.code() == StatusCode::kNotFound) {
    // No WAL: an id that was never created here. Nothing failed, so no
    // breaker is made or fed for it.
    ShedCounter("unknown")->Increment();
    return nullptr;
  }
  if (breaker == breakers_.end()) {
    breaker = breakers_
                  .emplace(id, std::make_unique<market::ReliabilityTracker>(
                                   1, market::RecoveryOptions{}))
                  .first;
  }
  breaker->second->RecordFault(0, seq, market::FaultKind::kSettlementFailure);
  ShedCounter(status.code() == StatusCode::kIoError ? "unknown"
                                                    : "unrecoverable")
      ->Increment();
  return nullptr;
}

void ShardWorker::ProcessEvent(const Event& event) {
  const std::int64_t start_ns = SteadyNowNs();
  auto it = marketplaces_.find(event.marketplace);
  HostedMarketplace* marketplace =
      it != marketplaces_.end() ? it->second.get() : nullptr;

  if (marketplace == nullptr) {
    if (event.type == EventType::kCreateMarketplace) {
      if (event.spec == nullptr) {
        ShedCounter("invalid")->Increment();
        shed_by_worker_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      auto created = HostedMarketplace::Create(event.marketplace,
                                               *event.spec,
                                               options_.marketplace);
      if (!created.ok()) {
        event_errors_.fetch_add(1, std::memory_order_relaxed);
        errors_metric_->Increment();
        ShedCounter("create_failed")->Increment();
        return;
      }
      marketplaces_[event.marketplace] = std::move(created).value();
      PublishState(event.marketplace, HostedMarketplace::State::kActive);
      marketplaces_metric_->Set(static_cast<double>(marketplaces_.size()));
      return;
    }
    // Lazy WAL recovery: unknown id, but its durable state may be on
    // disk from before a crash.
    marketplace = RecoverMarketplace(event.marketplace);
    if (marketplace == nullptr) return;
    marketplaces_metric_->Set(static_cast<double>(marketplaces_.size()));
  } else if (event.type == EventType::kCreateMarketplace) {
    ShedCounter("duplicate")->Increment();
    shed_by_worker_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  if (marketplace->state() != HostedMarketplace::State::kActive &&
      event.type != EventType::kCloseMarketplace) {
    ShedCounter(HostedMarketplace::StateName(marketplace->state()))
        ->Increment();
    shed_by_worker_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Merge ticks the admission path parked while this shard's queue was
  // full (kCoalesceTicks policy) into this dispatch.
  Event to_apply = event;
  if (options_.coalescer != nullptr &&
      (event.type == EventType::kRoundTick ||
       event.type == EventType::kConsumerDemand)) {
    const std::int64_t parked =
        options_.coalescer->Claim(event.marketplace);
    if (parked > 0) {
      to_apply.type = EventType::kConsumerDemand;
      to_apply.rounds =
          (event.type == EventType::kRoundTick ? 1 : event.rounds) + parked;
    }
  }

  const std::int64_t before = marketplace->rounds_settled();
  std::int64_t remaining = 0;
  Status status = marketplace->ApplyEvent(
      to_apply, options_.max_rounds_per_dispatch, &remaining);
  // Deadline-bounded processing: large demands run in chunks with a
  // heartbeat between each, so the watchdog can tell "busy" from "hung".
  while (status.ok() && remaining > 0) {
    Beat();
    Event continuation = to_apply;
    continuation.type = EventType::kConsumerDemand;
    continuation.rounds = remaining;
    status = marketplace->ApplyEvent(
        continuation, options_.max_rounds_per_dispatch, &remaining);
  }
  const std::int64_t settled = marketplace->rounds_settled() - before;
  if (settled > 0) {
    rounds_settled_.fetch_add(static_cast<std::uint64_t>(settled),
                              std::memory_order_relaxed);
    rounds_metric_->Add(static_cast<double>(settled));
  }
  if (!status.ok()) {
    event_errors_.fetch_add(1, std::memory_order_relaxed);
    errors_metric_->Increment();
  }
  PublishState(event.marketplace, marketplace->state());
  if (marketplace->state() == HostedMarketplace::State::kClosed) {
    marketplaces_.erase(event.marketplace);
    marketplaces_metric_->Set(static_cast<double>(marketplaces_.size()));
  }
  quarantined_metric_->Set(static_cast<double>(
      options_.directory->CountInState(
          HostedMarketplace::State::kQuarantined)));
  dispatch_metric_->Record(
      static_cast<double>(SteadyNowNs() - start_ns) * 1e-9);
}

void ShardWorker::Run() {
  for (;;) {
    Event event;
    const EventQueue::PopResult popped = queue_.Pop(&event, kPopTimeout);
    Beat();
    queue_depth_metric_->Set(static_cast<double>(queue_.size()));
    if (popped == EventQueue::PopResult::kDone) break;
    if (popped == EventQueue::PopResult::kTimeout) continue;

    // Chaos: a one-shot stall before this event (watchdog sees a stale
    // heartbeat but no crash).
    const std::uint64_t processed =
        events_processed_.load(std::memory_order_relaxed);
    if (stall_after_.load(std::memory_order_acquire) != 0 &&
        processed + 1 == stall_after_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          stall_ms_.load(std::memory_order_acquire)));
      stall_after_.store(0, std::memory_order_release);
    }

    ProcessEvent(event);
    events_processed_.fetch_add(1, std::memory_order_relaxed);
    events_metric_->Increment();
    Beat();

    // Chaos: simulated crash at an event boundary — the event above was
    // fully applied (and WAL-logged); in-memory state dies, WALs stay
    // torn on disk, queued events survive for the restarted worker.
    const std::uint64_t kill_after =
        kill_after_.load(std::memory_order_acquire);
    if (kill_after != 0 &&
        events_processed_.load(std::memory_order_relaxed) >= kill_after) {
      kill_after_.store(0, std::memory_order_release);
      marketplaces_.clear();
      breakers_.clear();
      crashed_.store(true, std::memory_order_release);
      running_.store(false, std::memory_order_release);
      return;
    }
  }

  // Graceful drain: seal every live marketplace's WAL (final snapshot +
  // footer) so the next process generation recovers cleanly.
  for (auto& entry : marketplaces_) {
    const Status status = entry.second->FinishWal();
    if (!status.ok()) {
      event_errors_.fetch_add(1, std::memory_order_relaxed);
      errors_metric_->Increment();
    }
    PublishState(entry.first, entry.second->state());
  }
  marketplaces_.clear();
  marketplaces_metric_->Set(0.0);
  running_.store(false, std::memory_order_release);
}

}  // namespace runtime
}  // namespace cdt
