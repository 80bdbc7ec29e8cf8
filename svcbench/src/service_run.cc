#include "service_run.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <system_error>
#include <thread>

#include "spans.h"
#include "stats.h"

namespace svcbench {

namespace {

using cdt::runtime::MarketplaceService;
using cdt::util::Status;

constexpr std::int64_t kSecond = 1000000000;
/// Completion is read from the shards' counters at most this often; each
/// read takes the shard queue's lock, so polling harder would slow the
/// worker it is timing.
constexpr std::int64_t kPollIntervalNs = 20000;
/// WaitSettled spins (instead of sleeping) for this long into a wait.
constexpr std::int64_t kSpinWaitNs = 50000000;
/// The open-loop generator spins (instead of sleeping) this close to a due
/// time, so it submits on time despite coarse sleep wake-ups.
constexpr std::int64_t kSpinBeforeDueNs = 300000;
/// A phase that has not settled after this long is a hang, not load.
constexpr std::int64_t kPhaseTimeoutNs = 120 * kSecond;

MarketplaceService::Options ServiceOptions(const WorkloadSpec& spec,
                                           const std::string& dir) {
  MarketplaceService::Options options;
  options.num_shards = kShards;
  options.wal_dir = dir;
  options.snapshot_every = spec.snapshot_every;
  options.durability.compact_after_rounds = spec.compact_after_rounds;
  // The generator restarts the crashed shards itself (Supervisor::PollOnce)
  // the moment it sees them down, so recover_s does not carry up to one
  // watchdog period of sleep.
  options.watchdog_period = std::chrono::milliseconds(0);
  return options;
}

void SpinUntil(std::int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

/// Submits offers to one service and tracks what each shard accepted.
class Driver {
 public:
  Driver(MarketplaceService* service, const Plan& plan,
         ServiceResult* result, bool live)
      : service_(service),
        plan_(plan),
        result_(result),
        live_(live),
        accepted_per_shard_(kShards, 0) {}

  /// Offers one event; records ledger, timing and replay log when live.
  /// Returns the index of its EventTiming (live), else 0.
  MarketplaceService::Admission Submit(const Offer& offer,
                                       std::int64_t due_ns,
                                       std::size_t* timing_index) {
    const Market& market = plan_.markets[static_cast<std::size_t>(offer.market)];
    const std::int64_t start = NowNs();
    const MarketplaceService::Admission admission =
        service_->Submit(offer.event);
    const std::int64_t end = NowNs();
    if (admission == MarketplaceService::Admission::kAccepted) {
      ++accepted_per_shard_[static_cast<std::size_t>(market.shard)];
    }
    if (!live_) return admission;
    ++result_->offered;
    result_->rounds_offered +=
        static_cast<std::uint64_t>(RoundsOf(offer.event));
    result_->submit_us.push_back(static_cast<double>(end - start) / 1e3);
    switch (admission) {
      case MarketplaceService::Admission::kAccepted:
        ++result_->accepted;
        result_->accepted_by_market[static_cast<std::size_t>(offer.market)]
            .push_back(offer);
        break;
      case MarketplaceService::Admission::kCoalesced:
        ++result_->coalesced;
        break;
      case MarketplaceService::Admission::kShed:
        ++result_->shed;
        break;
    }
    EventTiming timing;
    timing.id = offer.id;
    timing.shard = market.shard;
    timing.submit_start_ns = start;
    timing.submit_end_ns = end;
    timing.due_ns = due_ns;
    if (timing_index != nullptr) *timing_index = result_->timings.size();
    result_->timings.push_back(timing);
    return admission;
  }

  std::uint64_t Processed(int shard) const {
    return service_->shard(shard).Stats().events_processed;
  }

  /// Waits until every accepted event has been processed; `*at` is when
  /// the generator saw the last one finish.
  Status WaitSettled(std::int64_t* at) {
    const std::int64_t begin = NowNs();
    const std::int64_t deadline = begin + kPhaseTimeoutNs;
    for (;;) {
      bool settled = true;
      for (int s = 0; s < kShards; ++s) {
        if (Processed(s) < accepted_per_shard_[static_cast<std::size_t>(s)]) {
          settled = false;
        }
      }
      const std::int64_t now = NowNs();
      if (settled) {
        if (at != nullptr) *at = now;
        return Status::OK();
      }
      if (now > deadline) {
        return Status::Internal("events did not settle within " +
                                std::to_string(kPhaseTimeoutNs / kSecond) +
                                " s");
      }
      // Spin through short waits (a paper-scale set-up takes ~15 ms, and a
      // sleeping generator can take milliseconds to wake on a busy host);
      // past that, sleep between polls and leave the CPU to the workers.
      if (now - begin < kSpinWaitNs) {
        SpinUntil(now + kPollIntervalNs);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

 private:
  MarketplaceService* service_;
  const Plan& plan_;
  ServiceResult* result_;
  bool live_;
  std::vector<std::uint64_t> accepted_per_shard_;
};

Status CheckRouting(const Plan& plan, const MarketplaceService& service) {
  for (const Market& market : plan.markets) {
    if (service.ShardFor(market.id) != market.shard) {
      return Status::Internal("service routes " + market.id +
                              " differently from FNV-1a: the shard balance "
                              "this benchmark relies on no longer holds");
    }
  }
  return Status::OK();
}

Status RunOpenLoop(const Plan& plan, const std::vector<Offer>& slice,
                   MarketplaceService* service, Driver* driver,
                   ServiceResult* result) {
  std::vector<std::uint64_t> bases;
  for (int s = 0; s < kShards; ++s) bases.push_back(driver->Processed(s));
  CompletionTracker tracker(bases);
  auto on_settled = [result](std::size_t index, std::int64_t due_ns,
                             std::int64_t now_ns) {
    result->timings[index].settled_ns = now_ns;
    result->settle_ms.push_back(static_cast<double>(now_ns - due_ns) / 1e6);
  };
  std::int64_t last_poll = 0;
  auto poll = [&](bool force) {
    const std::int64_t now = NowNs();
    if (!force && now - last_poll < kPollIntervalNs) return;
    last_poll = now;
    for (int s = 0; s < kShards; ++s) {
      tracker.Observe(s, service->shard(s).Stats().events_processed, NowNs(),
                      on_settled);
    }
  };

  const std::int64_t start = NowNs() + 2000000;
  for (const Offer& offer : slice) {
    const std::int64_t due = start + offer.due_offset_ns;
    // Spin while events are in flight (their completion times need the
    // resolution) and in the last stretch before the due time; otherwise
    // sleep, so the generator does not take a CPU from the workers.
    for (std::int64_t now = NowNs(); now < due; now = NowNs()) {
      if (tracker.pending() == 0 && due - now > kSpinBeforeDueNs) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      } else {
        poll(false);
      }
    }
    result->late_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
    std::size_t index = 0;
    if (driver->Submit(offer, due, &index) ==
        MarketplaceService::Admission::kAccepted) {
      tracker.Expect(plan.markets[static_cast<std::size_t>(offer.market)].shard,
                     due, index);
    }
    poll(true);
  }
  const std::int64_t deadline = NowNs() + kPhaseTimeoutNs;
  while (tracker.pending() > 0 && NowNs() < deadline) poll(false);
  result->unsettled += tracker.pending();
  return Status::OK();
}

Status RunCrash(const Plan& plan, const CrashCycle& cycle,
                MarketplaceService* service, Driver* driver,
                ServiceResult* result) {
  CDT_RETURN_NOT_OK(driver->WaitSettled(nullptr));
  // Each shard dies right after applying its last top-up event, so the
  // queues are empty and every marketplace stands at cycle.crash_round.
  std::vector<std::uint64_t> topups(kShards, 0);
  for (const Offer& offer : cycle.topup) {
    ++topups[static_cast<std::size_t>(
        plan.markets[static_cast<std::size_t>(offer.market)].shard)];
  }
  for (int s = 0; s < kShards; ++s) {
    service->shard(s).ArmKillAfter(driver->Processed(s) +
                                   topups[static_cast<std::size_t>(s)]);
  }
  for (const Offer& offer : cycle.topup) driver->Submit(offer, 0, nullptr);

  const std::int64_t deadline = NowNs() + kPhaseTimeoutNs;
  for (;;) {
    bool all_down = true;
    for (int s = 0; s < kShards; ++s) {
      if (!service->shard(s).crashed()) all_down = false;
    }
    if (all_down) break;
    if (NowNs() > deadline) {
      return Status::Internal("shards did not crash at the armed events");
    }
    SpinUntil(NowNs() + kPollIntervalNs);
  }
  const std::int64_t crashed_at = NowNs();
  for (std::size_t m = 0; m < plan.markets.size(); ++m) {
    result->crash_index[m] = result->accepted_by_market[m].size();
  }
  service->supervisor().PollOnce();
  for (const Offer& offer : cycle.recovery_ticks) {
    driver->Submit(offer, 0, nullptr);
  }
  std::int64_t serving_at = 0;
  CDT_RETURN_NOT_OK(driver->WaitSettled(&serving_at));
  result->recover_s.push_back(static_cast<double>(serving_at - crashed_at) /
                              1e9);
  return Status::OK();
}

}  // namespace

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

Status RunService(const Plan& plan, const std::string& wal_root,
                  ServiceResult* result) {
  const WorkloadSpec& spec = *plan.spec;
  result->accepted_by_market.assign(plan.markets.size(), {});
  result->crash_index.assign(plan.markets.size(), 0);

  std::unique_ptr<MarketplaceService> service;
  std::unique_ptr<Driver> driver;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    const bool live = rep + 1 == spec.setup_reps;
    const std::string dir = wal_root + "/setup-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    // setup_s: from nothing to a service whose every marketplace has been
    // created and has settled round 1 (Algorithm 1's select-all round).
    const std::int64_t start = NowNs();
    auto created = MarketplaceService::Create(ServiceOptions(spec, dir));
    CDT_RETURN_NOT_OK(created.status());
    service = std::move(created).value();
    driver = std::make_unique<Driver>(service.get(), plan, result, live);
    for (const Offer& offer : plan.setup) driver->Submit(offer, 0, nullptr);
    std::int64_t ready_at = 0;
    CDT_RETURN_NOT_OK(driver->WaitSettled(&ready_at));
    result->setup_s.push_back(static_cast<double>(ready_at - start) / 1e9);
    CDT_RETURN_NOT_OK(CheckRouting(plan, *service));
    if (!live) {
      service->Drain();
      driver.reset();
      service.reset();
      std::filesystem::remove_all(dir);
    } else {
      result->wal_dir = dir;
    }
  }

  for (const Segment& segment : plan.segments) {
    for (const auto& batch : segment.batches) {
      std::int64_t rounds = 0;
      for (const Offer& offer : batch) rounds += RoundsOf(offer.event);
      const std::int64_t start = NowNs();
      for (const Offer& offer : batch) driver->Submit(offer, 0, nullptr);
      std::int64_t done_at = 0;
      CDT_RETURN_NOT_OK(driver->WaitSettled(&done_at));
      result->batch_rounds_per_s.push_back(
          static_cast<double>(rounds) * 1e9 /
          static_cast<double>(done_at - start));
    }
    CDT_RETURN_NOT_OK(RunOpenLoop(plan, segment.open_loop, service.get(),
                                  driver.get(), result));
  }
  for (const CrashCycle& cycle : plan.crashes) {
    CDT_RETURN_NOT_OK(
        RunCrash(plan, cycle, service.get(), driver.get(), result));
  }

  service->Drain();
  result->stats = service->GetStats();
  std::uint64_t worker_losses = 0;
  for (const auto& shard : result->stats.shards) {
    worker_losses += shard.shed_by_worker + shard.event_errors;
  }
  // Shed, errored and unsettled events are not served.
  const std::uint64_t lost = worker_losses + result->unsettled;
  result->served = result->stats.events_processed > lost
                       ? result->stats.events_processed - lost
                       : 0;
  driver.reset();
  service.reset();
  result->wal_bytes = DirectoryBytes(result->wal_dir);
  return Status::OK();
}

}  // namespace svcbench
