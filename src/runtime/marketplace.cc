#include "runtime/marketplace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "market/trading_engine.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "persist/replay.h"

namespace cdt {
namespace runtime {

using util::Result;
using util::Status;
using util::StatusCode;

std::string MarketplaceLogPath(const std::string& wal_dir,
                               const std::string& id) {
  return wal_dir + "/" + id + ".cdtlog";
}

std::string MarketplaceSnapshotPath(const std::string& wal_dir,
                                    const std::string& id) {
  return wal_dir + "/" + id + ".cdtsnap";
}

std::string MarketplaceJournalPath(const std::string& wal_dir,
                                   const std::string& id) {
  return wal_dir + "/" + id + ".events";
}

const char* HostedMarketplace::StateName(State state) {
  switch (state) {
    case State::kActive: return "active";
    case State::kQuarantined: return "quarantined";
    case State::kBudgetStopped: return "budget_stopped";
    case State::kDone: return "done";
    case State::kClosed: return "closed";
  }
  return "unknown";
}

/// The guard's options for marketplace `id`; snapshots also back
/// compaction, so either one needs a snapshot path.
static DurabilityGuard::Options GuardOptions(
    const HostedMarketplace::Options& options, const std::string& id) {
  DurabilityGuard::Options guard;
  guard.log_path = MarketplaceLogPath(options.wal_dir, id);
  guard.journal_path = MarketplaceJournalPath(options.wal_dir, id);
  guard.snapshot_every = options.snapshot_every;
  if (options.snapshot_every > 0 ||
      options.durability.compact_after_rounds > 0) {
    guard.snapshot_path = MarketplaceSnapshotPath(options.wal_dir, id);
  }
  guard.tuning = options.durability;
  return guard;
}

Result<std::unique_ptr<HostedMarketplace>> HostedMarketplace::Create(
    const std::string& id, const MarketplaceSpec& spec,
    const Options& options) {
  if (options.wal_dir.empty()) {
    return Status::InvalidArgument("HostedMarketplace needs a wal_dir");
  }
  auto run = core::CmabHs::Create(spec.config, spec.policy);
  CDT_RETURN_NOT_OK(run.status());

  // A fresh incarnation of the id owns its WAL stem outright: stale
  // snapshot/journal files from a previous life would otherwise pair with
  // the new log and corrupt a later recovery.
  std::remove(MarketplaceSnapshotPath(options.wal_dir, id).c_str());
  std::remove(MarketplaceJournalPath(options.wal_dir, id).c_str());

  auto guard = DurabilityGuard::Create(GuardOptions(options, id),
                                       spec.config, spec.policy);
  CDT_RETURN_NOT_OK(guard.status());

  std::unique_ptr<HostedMarketplace> marketplace(
      new HostedMarketplace(id, std::move(run).value()));
  marketplace->guard_ = guard.value().get();
  marketplace->run_->mutable_engine().AddObserver(std::move(guard).value());
  return marketplace;
}

Result<std::unique_ptr<HostedMarketplace>> HostedMarketplace::Recover(
    const std::string& id, const Options& options) {
  // Each WAL file is read once: the log's scan also gives the reattached
  // writer its tail, and the journal's contents reopen the journal.
  auto loaded = persist::LoadRecordedLog(
      MarketplaceLogPath(options.wal_dir, id), /*allow_torn_tail=*/true);
  CDT_RETURN_NOT_OK(loaded.status());
  const persist::RecordedLog& recorded = loaded.value();
  const std::int64_t base_round = recorded.base_round;
  const std::int64_t last_round = base_round + recorded.round_count;

  auto journal_read =
      ReadJournal(MarketplaceJournalPath(options.wal_dir, id));
  CDT_RETURN_NOT_OK(journal_read.status());
  std::vector<persist::SellerFlip> flips;
  for (const JournalEntry& entry : journal_read.value().entries) {
    flips.push_back({entry.effect_round, entry.seller,
                     entry.type == EventType::kSellerReturn});
  }

  // Prefer snapshot + tail-replay; any snapshot problem (missing file,
  // config mismatch, restore-unsafe policy) degrades to a full replay —
  // slower, never wrong, and counted by reason. A rebased (compacted) log
  // holds no rounds before its base, so there the snapshot is mandatory.
  std::unique_ptr<core::CmabHs> run;
  const char* full_replay_reason = nullptr;
  auto snap =
      persist::ReadSnapshotFile(MarketplaceSnapshotPath(options.wal_dir, id));
  if (!snap.ok()) {
    full_replay_reason = snap.status().code() == StatusCode::kNotFound
                             ? "no_snapshot"
                             : "unreadable_snapshot";
  } else if (snap.value().config_crc != recorded.config_crc) {
    full_replay_reason = "config_mismatch";
  } else if (const std::int64_t snap_round =
                 snap.value().snapshot.next_round - 1;
             snap_round < base_round || snap_round > last_round) {
    full_replay_reason = "snapshot_out_of_range";
  } else {
    auto candidate = core::CmabHs::Create(recorded.config, recorded.policy);
    CDT_RETURN_NOT_OK(candidate.status());
    if (candidate.value()
            ->mutable_engine()
            .RestoreSnapshot(snap.value().snapshot)
            .ok()) {
      run = std::move(candidate).value();
    } else {
      full_replay_reason = "restore_refused";
    }
  }
  if (run == nullptr) {
    if (base_round > 0) {
      return Status::Corruption(
          "marketplace '" + id + "' has a log rebased at round " +
          std::to_string(base_round) +
          " but no usable snapshot — rounds before the base are "
          "unrecoverable");
    }
    obs::registry()
        .GetCounter("cdt_runtime_recovery_full_replays_total",
                    "Recoveries that replayed the whole log instead of a "
                    "snapshot's tail, by why the snapshot was not used",
                    {{"reason", full_replay_reason}})
        ->Increment();
    auto candidate = core::CmabHs::Create(recorded.config, recorded.policy);
    CDT_RETURN_NOT_OK(candidate.status());
    run = std::move(candidate).value();
  }
  const std::int64_t resume_round = run->engine().current_round();

  // Journaled activity flips re-apply exactly when the cursor reaches
  // their effect round, so every re-executed coalition sees the activity
  // state the original saw. A divergence fails the recovery; only an
  // unusable snapshot falls back to a full replay.
  Status replayed = persist::ReplayRecordedRounds(recorded, flips, run.get());
  if (!replayed.ok()) {
    return Status(replayed.code(), "marketplace '" + id +
                                       "' recovery: " + replayed.message());
  }

  std::unique_ptr<HostedMarketplace> marketplace(
      new HostedMarketplace(id, std::move(run)));
  if (recorded.sealed) {
    // Cleanly finished before the crash: nothing to append, read-only.
    marketplace->state_ = State::kClosed;
    return marketplace;
  }

  auto guard = DurabilityGuard::Attach(GuardOptions(options, id),
                                       recorded.config, recorded.policy,
                                       recorded.tail(), journal_read.value());
  CDT_RETURN_NOT_OK(guard.status());
  marketplace->guard_ = guard.value().get();
  marketplace->run_->mutable_engine().AddObserver(std::move(guard).value());

  if (resume_round == 0 && options.snapshot_every > 0 && last_round > 0) {
    // Full replay because the snapshot was missing or unusable: restore the
    // snapshot now so the next crash does not pay the full replay again.
    // Storage failures here feed the breaker, never fail the recovery.
    CDT_RETURN_NOT_OK(
        marketplace->guard_->CheckpointNow(marketplace->run_->engine()));
  }

  if (marketplace->rounds_settled() >= marketplace->total_rounds()) {
    marketplace->state_ = State::kDone;
  }
  return marketplace;
}

Status HostedMarketplace::RunRounds(std::int64_t budget,
                                    std::int64_t* settled) {
  *settled = 0;
  while (*settled < budget) {
    if (rounds_settled() >= total_rounds()) {
      state_ = State::kDone;
      return Status::OK();
    }
    auto report = run_->RunRound();
    if (!report.ok()) {
      if (report.status().code() == StatusCode::kFailedPrecondition &&
          run_->engine().budget_exhausted()) {
        state_ = State::kBudgetStopped;
        return Status::OK();
      }
      return report.status();
    }
    ++*settled;
  }
  if (rounds_settled() >= total_rounds()) state_ = State::kDone;
  return Status::OK();
}

Status HostedMarketplace::ApplyEvent(const Event& event,
                                     std::int64_t max_rounds,
                                     std::int64_t* rounds_remaining) {
  *rounds_remaining = 0;
  switch (event.type) {
    case EventType::kCreateMarketplace:
      return Status::OK();  // creation happened when this object was built
    case EventType::kCloseMarketplace:
      return FinishWal();
    case EventType::kSellerLeave:
    case EventType::kSellerReturn: {
      if (state_ != State::kActive) return Status::OK();  // shed
      // WAL discipline: journal first, then mutate. Re-application during
      // recovery reaches the same engine state, so a deterministic
      // refusal here refuses identically there. A journal failure no
      // longer quarantines — the guard absorbs it by degrading (the flip
      // then rides in the re-arm snapshot's activity bitmap).
      JournalEntry entry;
      entry.type = event.type;
      entry.effect_round = rounds_settled() + 1;
      entry.seller = event.seller;
      if (guard_ != nullptr) guard_->Journal(entry);
      Status status = run_->mutable_engine().SetSellerActive(
          event.seller, event.type == EventType::kSellerReturn);
      if (!status.ok() &&
          status.code() != StatusCode::kFailedPrecondition &&
          status.code() != StatusCode::kInvalidArgument &&
          status.code() != StatusCode::kOutOfRange) {
        Quarantine();
        return status;
      }
      QuarantineIfGuardFailed();
      return Status::OK();
    }
    case EventType::kRoundTick:
    case EventType::kConsumerDemand: {
      if (state_ != State::kActive) return Status::OK();  // shed
      const std::int64_t want =
          event.type == EventType::kRoundTick
              ? 1
              : std::max<std::int64_t>(0, event.rounds);
      const std::int64_t chunk =
          max_rounds > 0 ? std::min(want, max_rounds) : want;
      std::int64_t settled = 0;
      Status status = RunRounds(chunk, &settled);
      if (!status.ok()) {
        Quarantine();
        return status;
      }
      QuarantineIfGuardFailed();
      if (state_ == State::kActive) *rounds_remaining = want - settled;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown runtime event type");
}

void HostedMarketplace::QuarantineIfGuardFailed() {
  if (guard_ == nullptr || state_ != State::kActive) return;
  if (guard_->health() != DurabilityGuard::Health::kFailed) return;
  CountDurabilityQuarantine();
  Quarantine();
}

Status HostedMarketplace::FinishWal() {
  if (state_ == State::kClosed) return Status::OK();
  Status status;
  // A run closed before its last round ends here, so the checker's O(M)
  // ledger audit closes it (the last round and a budget stop ran it
  // already). A violation is reported, and the WAL is still sealed.
  if (state_ == State::kActive) status = run_->engine().AuditInvariants();
  if (guard_ != nullptr) {
    // Final checkpoint + footer seal + journal sync; a degraded guard
    // makes one last rebase attempt so a cleared fault still drains to a
    // sealed, recoverable WAL.
    Status finished = guard_->Finish(run_->engine());
    if (status.ok()) status = finished;
  }
  state_ = State::kClosed;
  return status;
}

}  // namespace runtime
}  // namespace cdt
