#include "runtime/durability.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "market/trading_engine.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "persist/atomic_io.h"

namespace cdt {
namespace runtime {

using util::Result;
using util::Status;
using util::StatusCode;

namespace {

std::atomic<std::uint64_t> g_wal_failures{0};
std::atomic<std::uint64_t> g_degrades{0};
std::atomic<std::uint64_t> g_rearms{0};
std::atomic<std::uint64_t> g_failures{0};
std::atomic<std::uint64_t> g_compactions{0};
std::atomic<std::uint64_t> g_quarantines{0};

void Count(const char* name, const char* help,
           std::atomic<std::uint64_t>* total) {
  total->fetch_add(1, std::memory_order_relaxed);
  obs::registry().GetCounter(name, help, {})->Increment();
}

/// Storage failures feed the breaker; anything else (a round-numbering
/// bug, an already-finished writer) is a programming error that must
/// propagate loudly.
bool IsStorageFailure(const Status& status) {
  return status.code() == StatusCode::kIoError;
}

}  // namespace

DurabilityTotals GlobalDurabilityTotals() {
  DurabilityTotals totals;
  totals.wal_failures = g_wal_failures.load(std::memory_order_relaxed);
  totals.degrades = g_degrades.load(std::memory_order_relaxed);
  totals.rearms = g_rearms.load(std::memory_order_relaxed);
  totals.failures = g_failures.load(std::memory_order_relaxed);
  totals.compactions = g_compactions.load(std::memory_order_relaxed);
  totals.quarantines = g_quarantines.load(std::memory_order_relaxed);
  return totals;
}

void CountDurabilityQuarantine() {
  Count("cdt_runtime_durability_quarantined_total",
        "Marketplaces quarantined after their durability breaker failed",
        &g_quarantines);
}

const char* DurabilityGuard::HealthName(Health health) {
  switch (health) {
    case Health::kDurable:
      return "durable";
    case Health::kDegraded:
      return "degraded";
    case Health::kFailed:
      return "failed";
  }
  return "unknown";
}

/// RunRecorder checks the log and snapshot options.
static Status ValidateOptions(const DurabilityGuard::Options& options) {
  if (options.journal_path.empty()) {
    return Status::InvalidArgument("DurabilityGuard needs a journal_path");
  }
  if (options.tuning.degrade_after_failures < 1) {
    return Status::InvalidArgument("degrade_after_failures must be >= 1");
  }
  if (options.tuning.rearm_initial_rounds < 1 ||
      options.tuning.rearm_max_rounds < options.tuning.rearm_initial_rounds) {
    return Status::InvalidArgument("re-arm backoff must satisfy 1 <= initial "
                                   "<= max");
  }
  if (options.tuning.compact_after_rounds < 0) {
    return Status::InvalidArgument("compact_after_rounds must be >= 0");
  }
  if (options.tuning.compact_after_rounds > 0 &&
      options.snapshot_path.empty()) {
    return Status::InvalidArgument(
        "compaction needs a snapshot_path (the rebased log resumes from "
        "the snapshot)");
  }
  return Status::OK();
}

static persist::RunRecorder::Options RecorderOptions(
    const DurabilityGuard::Options& options) {
  persist::RunRecorder::Options recorder;
  recorder.log_path = options.log_path;
  recorder.snapshot_path = options.snapshot_path;
  recorder.snapshot_every = options.snapshot_every;
  return recorder;
}

Result<std::unique_ptr<DurabilityGuard>> DurabilityGuard::Create(
    Options options, const core::MechanismConfig& config,
    const core::PolicySpec& policy) {
  CDT_RETURN_NOT_OK(ValidateOptions(options));
  auto recorder =
      persist::RunRecorder::Create(RecorderOptions(options), config, policy);
  CDT_RETURN_NOT_OK(recorder.status());
  auto journal = JournalWriter::Open(options.journal_path);
  CDT_RETURN_NOT_OK(journal.status());
  return std::unique_ptr<DurabilityGuard>(new DurabilityGuard(
      std::move(options), config, policy, std::move(recorder).value(),
      std::move(journal).value()));
}

Result<std::unique_ptr<DurabilityGuard>> DurabilityGuard::Attach(
    Options options, const core::MechanismConfig& config,
    const core::PolicySpec& policy) {
  CDT_RETURN_NOT_OK(ValidateOptions(options));
  auto recorder = persist::RunRecorder::Attach(RecorderOptions(options));
  CDT_RETURN_NOT_OK(recorder.status());
  auto journal = JournalWriter::Open(options.journal_path);
  CDT_RETURN_NOT_OK(journal.status());
  return std::unique_ptr<DurabilityGuard>(new DurabilityGuard(
      std::move(options), config, policy, std::move(recorder).value(),
      std::move(journal).value()));
}

Status DurabilityGuard::OnRound(const market::TradingEngine& engine,
                                const market::RoundReport& report) {
  switch (health_) {
    case Health::kFailed:
      return Status::OK();  // the host quarantines; nothing to write
    case Health::kDegraded:
      if (report.round >= next_rearm_round_) TryRearm(engine, report.round);
      return Status::OK();
    case Health::kDurable:
      break;
  }
  Status status = recorder_->OnRound(engine, report);
  if (!status.ok()) {
    if (!IsStorageFailure(status)) return status;
    RecordWalFailure(status, report.round);
    return Status::OK();
  }
  consecutive_failures_ = 0;
  // The log's base round is the last rebase, including one made before a
  // crash and recovery, so the cadence matches an uninterrupted run.
  if (tuning().compact_after_rounds > 0 &&
      report.round - recorder_->base_round() >=
          tuning().compact_after_rounds) {
    Status compacted = Compact(engine);
    if (!compacted.ok()) {
      if (!IsStorageFailure(compacted)) return compacted;
      // Compact dismantles the writers before it can fail — the outgoing
      // segment is sealed (retention) or already dropped by Rebase — so
      // there is nothing left to append to in place. Open the breaker
      // now instead of merely counting toward the threshold: a guard
      // left kDurable here would touch dead writers next round.
      RecordWalFailure(compacted, report.round);
      Degrade(report.round);
    }
  }
  return Status::OK();
}

void DurabilityGuard::Journal(const JournalEntry& entry) {
  if (journal_ == nullptr) return;  // degraded: rides in the next snapshot
  Status status = journal_->Append(entry);
  if (status.ok()) return;
  CountWalFailure(status);
  // The flip is applied but not journaled: the current log can no longer
  // reproduce the engine, so continuing to append rounds would poison
  // recovery silently. Degrade now; the re-arm snapshot's activity
  // bitmap carries the flip instead.
  Degrade(entry.effect_round - 1);
}

Status DurabilityGuard::CheckpointNow(const market::TradingEngine& engine) {
  if (health_ != Health::kDurable) return Status::OK();
  Status status = recorder_->CheckpointNow(engine);
  if (!status.ok() && IsStorageFailure(status)) {
    RecordWalFailure(status, engine.current_round());
    return Status::OK();
  }
  return status;
}

Status DurabilityGuard::Rebase(const market::TradingEngine& engine) {
  recorder_.reset();
  journal_.reset();
  auto recorder = persist::RunRecorder::Rebase(RecorderOptions(options_),
                                               config_, policy_, engine);
  CDT_RETURN_NOT_OK(recorder.status());
  // Journaled flips all have effect_round <= the rebase round, so they are
  // inside the snapshot's activity bitmap — the journal restarts empty.
  std::remove(options_.journal_path.c_str());
  auto journal = JournalWriter::Open(options_.journal_path);
  CDT_RETURN_NOT_OK(journal.status());
  recorder_ = std::move(recorder).value();
  journal_ = std::move(journal).value();
  return Status::OK();
}

Status DurabilityGuard::Compact(const market::TradingEngine& engine) {
  if (tuning().retain_compacted) {
    // A failed seal or rename leaves a recorder that can never append
    // again; it fails as a storage failure, so OnRound degrades (dropping
    // the dead writer) rather than retrying.
    CDT_RETURN_NOT_OK(recorder_->SealAs(options_.log_path + ".old"));
  }
  CDT_RETURN_NOT_OK(Rebase(engine));
  ++compactions_;
  Count("cdt_runtime_durability_compactions_total",
        "Snapshot-compactions (log rebased onto its snapshot)",
        &g_compactions);
  return Status::OK();
}

void DurabilityGuard::TryRearm(const market::TradingEngine& engine,
                               std::int64_t round) {
  if (tuning().max_rearm_attempts > 0 &&
      rearm_attempts_ >= tuning().max_rearm_attempts) {
    MarkFailed();
    return;
  }
  ++rearm_attempts_;
  Status status = Rebase(engine);
  if (status.ok()) {
    MarkRearmed();
    return;
  }
  CountWalFailure(status);
  if (tuning().max_rearm_attempts > 0 &&
      rearm_attempts_ >= tuning().max_rearm_attempts) {
    MarkFailed();
    return;
  }
  rearm_backoff_ = std::min(rearm_backoff_ * 2, tuning().rearm_max_rounds);
  next_rearm_round_ = round + rearm_backoff_;
}

void DurabilityGuard::CountWalFailure(const Status& status) {
  last_error_ = status;
  ++wal_failures_;
  Count("cdt_runtime_durability_wal_failures_total",
        "WAL write failures absorbed by durability guards",
        &g_wal_failures);
}

void DurabilityGuard::RecordWalFailure(const Status& status,
                                       std::int64_t round) {
  CountWalFailure(status);
  // Failed atomic writes may strand our own temp file (ENOSPC mid-write,
  // simulated crash): clear this marketplace's stem immediately. The
  // directory-wide sweep runs at service startup, where no writer races.
  if (!options_.snapshot_path.empty()) {
    persist::RemoveTempFileFor(options_.snapshot_path);
  }
  persist::RemoveTempFileFor(options_.log_path);
  if (++consecutive_failures_ >= tuning().degrade_after_failures) {
    Degrade(round);
  }
}

void DurabilityGuard::Degrade(std::int64_t round) {
  if (health_ != Health::kDurable) return;
  health_ = Health::kDegraded;
  ++degrades_;
  Count("cdt_runtime_durability_degraded_total",
        "Durability breakers opened (marketplace trading without a WAL)",
        &g_degrades);
  // Drop the poisoned writers: sticky errors make in-place retries
  // futile, and re-arm opens fresh files anyway.
  recorder_.reset();
  journal_.reset();
  rearm_attempts_ = 0;
  rearm_backoff_ = tuning().rearm_initial_rounds;
  next_rearm_round_ = round + rearm_backoff_;
}

void DurabilityGuard::MarkRearmed() {
  health_ = Health::kDurable;
  consecutive_failures_ = 0;
  ++rearms_;
  Count("cdt_runtime_durability_rearms_total",
        "Degraded marketplaces restored to full durability", &g_rearms);
}

void DurabilityGuard::MarkFailed() {
  if (health_ == Health::kFailed) return;
  health_ = Health::kFailed;
  Count("cdt_runtime_durability_failed_total",
        "Durability breakers that exhausted their re-arm budget",
        &g_failures);
}

Status DurabilityGuard::Finish(const market::TradingEngine& engine) {
  Status status;
  switch (health_) {
    case Health::kDurable:
      status = CheckpointNow(engine);
      if (health_ != Health::kDurable) {
        // The final checkpoint itself tripped the breaker.
        return last_error_;
      }
      break;
    case Health::kDegraded:
      // One last probe outside the backoff schedule: if the fault has
      // cleared, the drain still ends in a sealed, recoverable WAL.
      status = Rebase(engine);
      if (!status.ok()) {
        last_error_ = status;
        return status;
      }
      MarkRearmed();
      break;
    case Health::kFailed:
      return last_error_.ok()
                 ? Status::FailedPrecondition("durability breaker failed")
                 : last_error_;
  }
  Status finish = recorder_->Finish();
  if (status.ok()) status = finish;
  Status closed = journal_->Close();
  if (status.ok()) status = closed;
  return status;
}

DurabilityGuard::Stats DurabilityGuard::stats() const {
  Stats stats;
  stats.health = health_;
  stats.wal_failures = wal_failures_;
  stats.degrades = degrades_;
  stats.rearms = rearms_;
  stats.compactions = compactions_;
  stats.last_error = last_error_;
  return stats;
}

}  // namespace runtime
}  // namespace cdt
