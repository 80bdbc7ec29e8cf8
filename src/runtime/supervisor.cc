#include "runtime/supervisor.h"

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace cdt {
namespace runtime {

Supervisor::Supervisor(std::vector<ShardWorker*> shards, Options options)
    : options_(options),
      shards_(std::move(shards)),
      in_stall_(shards_.size(), false) {}

Supervisor::~Supervisor() { StopWatchdog(); }

Supervisor::SweepReport Supervisor::PollOnce() {
  std::lock_guard<std::mutex> lock(sweep_mu_);
  SweepReport report;
  obs::MetricsRegistry& registry = obs::registry();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardWorker* shard = shards_[i];
    const obs::LabelSet shard_label = {
        {"shard", std::to_string(shard->index())}};

    if (shard->crashed()) {
      in_stall_[i] = false;
      shard->Restart();
      ++report.restarted;
      total_restarts_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    const auto age = shard->heartbeat_age();
    registry
        .GetGauge("cdt_runtime_heartbeat_age_seconds",
                  "Age of the shard worker's latest heartbeat", shard_label)
        ->Set(static_cast<double>(age.count()) * 1e-3);
    const bool stalled =
        shard->running() && age > options_.stall_threshold;
    if (stalled && !in_stall_[i]) {
      ++report.stalled;
      total_stalls_.fetch_add(1, std::memory_order_relaxed);
      registry
          .GetCounter("cdt_runtime_stalls_total",
                      "Stall episodes detected by the watchdog",
                      shard_label)
          ->Increment();
    }
    in_stall_[i] = stalled;
    if (stalled) ++report.currently_stalled;
  }
  return report;
}

void Supervisor::StartWatchdog(std::chrono::milliseconds period) {
  if (watchdog_.joinable()) return;
  stop_watchdog_.store(false, std::memory_order_release);
  watchdog_ = std::thread([this, period] {
    while (!stop_watchdog_.load(std::memory_order_acquire)) {
      PollOnce();
      std::this_thread::sleep_for(period);
    }
  });
}

void Supervisor::StopWatchdog() {
  if (!watchdog_.joinable()) return;
  stop_watchdog_.store(true, std::memory_order_release);
  watchdog_.join();
}

}  // namespace runtime
}  // namespace cdt
