#include "replay.h"

#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "core/cmab_hs.h"
#include "persist/atomic_io.h"
#include "persist/event_log.h"
#include "persist/io_hooks.h"
#include "persist/replay.h"
#include "runtime/journal.h"
#include "runtime/marketplace.h"

namespace svcbench {

namespace {

using cdt::runtime::HostedMarketplace;
using cdt::util::Status;

HostedMarketplace::Options MarketOptions(const WorkloadSpec& spec,
                                         const std::string& dir) {
  HostedMarketplace::Options options;
  options.wal_dir = dir;
  options.snapshot_every = spec.snapshot_every;
  options.durability.compact_after_rounds = spec.compact_after_rounds;
  return options;
}

std::vector<std::string> WalPaths(const std::string& dir,
                                  const std::string& id) {
  return {cdt::runtime::MarketplaceLogPath(dir, id),
          cdt::runtime::MarketplaceSnapshotPath(dir, id),
          cdt::runtime::MarketplaceJournalPath(dir, id)};
}

Status CopyWal(const std::string& from_dir, const std::string& to_dir,
               const std::string& id) {
  const auto from = WalPaths(from_dir, id);
  const auto to = WalPaths(to_dir, id);
  for (std::size_t i = 0; i < from.size(); ++i) {
    std::error_code ec;
    if (!std::filesystem::exists(from[i])) continue;
    std::filesystem::copy_file(
        from[i], to[i], std::filesystem::copy_options::overwrite_existing, ec);
    if (ec) return Status::IoError("copy " + from[i] + ": " + ec.message());
  }
  return Status::OK();
}

double MsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

}  // namespace

Status ReplayMarkets(const ReplayRequest& request, ReplayStats* stats) {
  const Plan& plan = *request.plan;
  const WorkloadSpec& spec = *plan.spec;
  std::filesystem::create_directories(request.dir);
  if (!request.crash_copy_dir.empty()) {
    std::filesystem::create_directories(request.crash_copy_dir);
  }
  const auto options = MarketOptions(spec, request.dir);
  SpanRecorder* spans = request.spans;
  const std::int64_t wall_start = NowNs();
  for (int m : request.markets) {
    const Market& market = plan.markets[static_cast<std::size_t>(m)];
    const auto& events = request.live->accepted_by_market[static_cast<std::size_t>(m)];
    if (events.empty() ||
        events[0].event.type != cdt::runtime::EventType::kCreateMarketplace) {
      return Status::Internal(market.id + ": accepted sequence does not "
                                          "start with its create");
    }
    std::unique_ptr<HostedMarketplace> hosted;
    {
      const std::int64_t start = NowNs();
      ScopedSpan span(spans, "runtime.create", events[0].id, kReplayTrack);
      auto created = HostedMarketplace::Create(market.id, *market.spec, options);
      CDT_RETURN_NOT_OK(created.status());
      hosted = std::move(created).value();
      stats->create_ms.push_back(MsSince(start));
    }
    double apply_ns = 0.0;
    std::int64_t rounds = 0;
    const std::size_t crash_at =
        request.live->crash_index[static_cast<std::size_t>(m)];
    for (std::size_t i = 1; i < events.size(); ++i) {
      if (i == crash_at && !request.crash_copy_dir.empty()) {
        CDT_RETURN_NOT_OK(
            CopyWal(request.dir, request.crash_copy_dir, market.id));
      }
      const Offer& offer = events[i];
      std::int64_t remaining = 0;
      const std::int64_t start = NowNs();
      Status status;
      {
        ScopedSpan span(spans, "runtime.apply", offer.id, kReplayTrack);
        status = hosted->ApplyEvent(offer.event,
                                    std::numeric_limits<std::int64_t>::max(),
                                    &remaining);
      }
      apply_ns += static_cast<double>(NowNs() - start);
      CDT_RETURN_NOT_OK(status);
      if (remaining != 0 || hosted->state() != HostedMarketplace::State::kActive) {
        return Status::Internal(market.id + ": replay left event " +
                                std::to_string(offer.id) + " unfinished");
      }
      rounds += RoundsOf(offer.event);
    }
    {
      ScopedSpan span(spans, "runtime.finish", 0, kReplayTrack);
      CDT_RETURN_NOT_OK(hosted->FinishWal());
    }
    stats->apply_ns.push_back(apply_ns);
    stats->apply_rounds.push_back(rounds);
    stats->rounds += rounds;
  }
  stats->wall_s = static_cast<double>(NowNs() - wall_start) / 1e9;
  return Status::OK();
}

Status ReplayAllParallel(const Plan& plan, const ServiceResult& live,
                         const std::string& dir, int threads,
                         ReplayStats* stats) {
  std::vector<ReplayRequest> requests(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    ReplayRequest& request = requests[static_cast<std::size_t>(t)];
    request.plan = &plan;
    request.live = &live;
    request.dir = dir;
  }
  for (std::size_t m = 0; m < plan.markets.size(); ++m) {
    requests[m % requests.size()].markets.push_back(static_cast<int>(m));
  }
  std::vector<ReplayStats> partial(requests.size());
  std::vector<Status> status(requests.size());
  const std::int64_t start = NowNs();
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < requests.size(); ++t) {
      workers.emplace_back([&, t] {
        status[t] = ReplayMarkets(requests[t], &partial[t]);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  for (std::size_t t = 0; t < requests.size(); ++t) {
    CDT_RETURN_NOT_OK(status[t]);
    stats->rounds += partial[t].rounds;
  }
  stats->wall_s = static_cast<double>(NowNs() - start) / 1e9;
  return Status::OK();
}

std::string CompareWal(const std::string& live_dir,
                       const std::string& replay_dir, const std::string& id) {
  const auto live = WalPaths(live_dir, id);
  const auto replay = WalPaths(replay_dir, id);
  for (std::size_t i = 0; i < live.size(); ++i) {
    const bool in_live = std::filesystem::exists(live[i]);
    const bool in_replay = std::filesystem::exists(replay[i]);
    if (in_live != in_replay) {
      return live[i] + (in_live ? " exists only in the live run"
                                : " exists only in the replay");
    }
    if (!in_live) continue;
    auto a = cdt::persist::ReadFileBytes(live[i]);
    auto b = cdt::persist::ReadFileBytes(replay[i]);
    if (!a.ok() || !b.ok()) return "cannot read " + live[i];
    if (a.value() != b.value()) {
      return live[i] + " differs from the single-thread replay (" +
             std::to_string(a.value().size()) + " vs " +
             std::to_string(b.value().size()) + " bytes)";
    }
  }
  return "";
}

Status TimeRecoveries(const Plan& plan, const std::string& crash_dir,
                      SpanRecorder* spans, RecoveryStats* stats) {
  const auto options = MarketOptions(*plan.spec, crash_dir);
  const std::int64_t crash_round = plan.crashes.back().crash_round;
  cdt::persist::IoHooks& hooks = cdt::persist::IoHooks::Instance();
  for (const Market& market : plan.markets) {
    std::int64_t start = NowNs();
    auto loaded = [&] {
      ScopedSpan span(spans, "persist.log_load", 0, kRecoverTrack);
      return cdt::persist::LoadRecordedRun(
          cdt::runtime::MarketplaceLogPath(crash_dir, market.id), true);
    }();
    CDT_RETURN_NOT_OK(loaded.status());
    const double load_ms = MsSince(start);
    const cdt::persist::RecordedRun& recorded = loaded.value();

    start = NowNs();
    auto snapshot = [&] {
      ScopedSpan span(spans, "persist.snapshot_read", 0, kRecoverTrack);
      return cdt::persist::ReadSnapshotFile(
          cdt::runtime::MarketplaceSnapshotPath(crash_dir, market.id));
    }();
    CDT_RETURN_NOT_OK(snapshot.status());

    auto run = cdt::core::CmabHs::Create(recorded.config, recorded.policy);
    CDT_RETURN_NOT_OK(run.status());
    start = NowNs();
    {
      ScopedSpan span(spans, "market.snapshot_restore", 0, kRecoverTrack);
      CDT_RETURN_NOT_OK(run.value()->mutable_engine().RestoreSnapshot(
          snapshot.value().snapshot));
    }
    stats->restore_ms.push_back(MsSince(start));

    // The verified tail replay recovery performs: journaled flips at their
    // effect rounds, each re-executed round byte-compared with the log.
    auto journal = cdt::runtime::ReadJournal(
        cdt::runtime::MarketplaceJournalPath(crash_dir, market.id));
    CDT_RETURN_NOT_OK(journal.status());
    const auto& flips = journal.value().entries;
    const std::int64_t from = snapshot.value().snapshot.next_round;
    const std::int64_t last = recorded.base_round +
                              static_cast<std::int64_t>(recorded.rounds.size());
    std::size_t next_flip = 0;
    while (next_flip < flips.size() && flips[next_flip].effect_round < from) {
      ++next_flip;
    }
    start = NowNs();
    {
      ScopedSpan span(spans, "persist.replay_tail", 0, kRecoverTrack);
      for (std::int64_t round = from; round <= last; ++round) {
        for (; next_flip < flips.size() &&
               flips[next_flip].effect_round == round;
             ++next_flip) {
          (void)run.value()->mutable_engine().SetSellerActive(
              flips[next_flip].seller,
              flips[next_flip].type == cdt::runtime::EventType::kSellerReturn);
        }
        auto report = run.value()->RunRound();
        CDT_RETURN_NOT_OK(report.status());
        if (cdt::persist::CanonicalRoundBytes(report.value()) !=
            recorded.round_payloads[static_cast<std::size_t>(
                round - recorded.base_round - 1)]) {
          return Status::Internal(market.id + ": tail replay diverged at "
                                              "round " +
                                  std::to_string(round));
        }
      }
    }
    if (last >= from) {
      stats->replay_us_per_round.push_back(
          MsSince(start) * 1e3 / static_cast<double>(last - from + 1));
    }

    hooks.Reset();
    hooks.EnableCounting();
    start = NowNs();
    auto recovered = [&] {
      ScopedSpan span(spans, "runtime.recover", 0, kRecoverTrack);
      return HostedMarketplace::Recover(market.id, options);
    }();
    const double recover_ms = MsSince(start);
    stats->reads += hooks.ops_seen(cdt::persist::IoOp::kRead);
    hooks.Reset();
    CDT_RETURN_NOT_OK(recovered.status());
    if (recovered.value()->rounds_settled() != crash_round) {
      return Status::Internal(
          market.id + ": recovered to round " +
          std::to_string(recovered.value()->rounds_settled()) +
          ", crashed at " + std::to_string(crash_round));
    }
    stats->recover_ms.push_back(recover_ms);
    stats->log_load_ms.push_back(load_ms);
    ++stats->recoveries;
  }
  return Status::OK();
}

}  // namespace svcbench
