// DurabilityGuard: the per-marketplace durability circuit breaker.
//
// The guard owns a marketplace's WAL writers — a persist::RunRecorder for
// the event log and snapshot, and the seller-flip journal — and sits on
// the engine as a RoundObserver in the recorder's place. The recorder
// alone fails fast; the guard absorbs its storage failures and walks an
// explicit health-state machine instead of crashing the shard:
//
//   kDurable   — every settled round is appended + checkpointed; the
//                recovery contract (snapshot + byte-verified tail replay)
//                holds in full.
//   kDegraded  — repeated WAL failures tripped the breaker (or a journal
//                append failed, which would silently poison recovery).
//                The poisoned writers are dropped and trading CONTINUES
//                WITHOUT durability. Re-arm probes run on a capped
//                exponential round backoff: each probe writes a fresh
//                snapshot of the whole campaign state and swings in a
//                rebased log (see persist::RunRecorder::Rebase), restoring
//                durability without replaying the lost window. Rounds
//                settled while degraded are not recoverable after a crash
//                — that is the honest trade against killing the shard.
//   kFailed    — the re-arm budget is exhausted; the host quarantines the
//                marketplace (explicitly counted, never silently wrong).
//
// The same snapshot-then-rebase move doubles as snapshot-compaction: at a
// configured round cadence the guard rewrites the log to start at the
// snapshot round, bounding per-marketplace log growth (and therefore
// ENOSPC pressure) with an optional retained, footer-sealed predecessor
// segment (<log>.old).
//
// This is the ReliabilityTracker pattern (market/faults.h) applied to
// storage, but round-counted instead of wall-clock so chaos runs are
// deterministic.

#ifndef CDT_RUNTIME_DURABILITY_H_
#define CDT_RUNTIME_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/config.h"
#include "market/invariants.h"
#include "persist/recorder.h"
#include "runtime/journal.h"
#include "util/status.h"

namespace cdt {
namespace runtime {

/// Process-wide durability totals, aggregated across every guard (and
/// mirrored in cdt_runtime_durability_* metrics) for health export.
struct DurabilityTotals {
  std::uint64_t wal_failures = 0;
  std::uint64_t degrades = 0;
  std::uint64_t rearms = 0;
  std::uint64_t failures = 0;
  std::uint64_t compactions = 0;
  std::uint64_t quarantines = 0;
};
DurabilityTotals GlobalDurabilityTotals();

/// Counted by the host when a kFailed guard forces a quarantine.
void CountDurabilityQuarantine();

class DurabilityGuard final : public market::RoundObserver {
 public:
  enum class Health { kDurable, kDegraded, kFailed };
  static const char* HealthName(Health health);

  /// Breaker / compaction knobs. All thresholds are in rounds or
  /// failure counts — never wall-clock — to keep chaos deterministic.
  struct Tuning {
    /// Consecutive failed rounds (append or checkpoint) before the
    /// breaker opens and the guard degrades.
    int degrade_after_failures = 3;
    /// First re-arm probe fires this many rounds after degrading...
    std::int64_t rearm_initial_rounds = 4;
    /// ...doubling per failed probe, capped here.
    std::int64_t rearm_max_rounds = 64;
    /// Failed probes before kFailed (0 = probe forever).
    int max_rearm_attempts = 0;
    /// Compact (snapshot-then-rebase) once the log holds this many
    /// rounds past its base. 0 disables compaction.
    std::int64_t compact_after_rounds = 0;
    /// Keep the sealed outgoing segment as <log_path>.old on compaction.
    bool retain_compacted = false;
  };

  struct Options {
    std::string log_path;
    std::string snapshot_path;  // empty only when snapshot_every == 0
    std::string journal_path;
    std::int64_t snapshot_every = 0;
    Tuning tuning;
  };

  struct Stats {
    Health health = Health::kDurable;
    std::uint64_t wal_failures = 0;
    std::uint64_t degrades = 0;
    std::uint64_t rearms = 0;
    std::uint64_t compactions = 0;
    util::Status last_error;
  };

  /// Fresh marketplace: creates the log (header + config) and journal.
  static util::Result<std::unique_ptr<DurabilityGuard>> Create(
      Options options, const core::MechanismConfig& config,
      const core::PolicySpec& policy);

  /// Crash recovery: reopens an existing unsealed log and journal in
  /// append mode. `config`/`policy` must be the recorded ones (they
  /// parameterize later re-arm rebases). The compaction cadence resumes
  /// from the log's base round, as if the run had never stopped.
  static util::Result<std::unique_ptr<DurabilityGuard>> Attach(
      Options options, const core::MechanismConfig& config,
      const core::PolicySpec& policy);

  /// RoundObserver: appends/checkpoints when durable, absorbs storage
  /// failures into the breaker, runs re-arm probes while degraded and
  /// compaction at cadence. Only non-storage errors (a round-numbering
  /// bug, say) propagate and fail the round.
  util::Status OnRound(const market::TradingEngine& engine,
                       const market::RoundReport& report) override;

  /// Journals a seller flip. Absorbing: a journal failure while durable
  /// degrades immediately (an unjournaled flip would otherwise poison
  /// recovery silently); while degraded/failed the flip simply rides in
  /// the next re-arm snapshot's activity bitmap.
  void Journal(const JournalEntry& entry);

  /// Writes a snapshot + note now when durable and the log is at the
  /// engine's round (used to restore full durability right after a
  /// full-replay recovery). Storage failures feed the breaker; only
  /// non-storage errors propagate.
  util::Status CheckpointNow(const market::TradingEngine& engine);

  /// Graceful drain. Durable: final checkpoint + footer seal + journal
  /// sync. Degraded: one last snapshot-and-rebase attempt so a cleared
  /// fault still drains to a sealed WAL. Failed: returns the breaker's
  /// last error.
  util::Status Finish(const market::TradingEngine& engine);

  Health health() const { return health_; }
  Stats stats() const;

 private:
  DurabilityGuard(Options options, const core::MechanismConfig& config,
                  const core::PolicySpec& policy,
                  std::unique_ptr<persist::RunRecorder> recorder,
                  std::unique_ptr<JournalWriter> journal)
      : options_(std::move(options)),
        config_(config),
        policy_(policy),
        recorder_(std::move(recorder)),
        journal_(std::move(journal)) {}

  const Tuning& tuning() const { return options_.tuning; }

  /// Swing in a recorder rebased at the engine's round (snapshot first),
  /// reset the journal. The core of re-arm and compaction.
  util::Status Rebase(const market::TradingEngine& engine);
  util::Status Compact(const market::TradingEngine& engine);
  void TryRearm(const market::TradingEngine& engine, std::int64_t round);
  /// Counts one absorbed WAL failure and keeps it as last_error.
  void CountWalFailure(const util::Status& status);
  void RecordWalFailure(const util::Status& status, std::int64_t round);
  void Degrade(std::int64_t round);
  void MarkRearmed();
  void MarkFailed();

  Options options_;
  core::MechanismConfig config_;
  core::PolicySpec policy_;
  // Invariant: health_ == kDurable implies both writers are live. Every
  // path that dismantles them (Rebase, Compact) either swings in fresh
  // writers or leaves the guard degraded/failed — never kDurable with a
  // null writer.
  std::unique_ptr<persist::RunRecorder> recorder_;
  std::unique_ptr<JournalWriter> journal_;

  Health health_ = Health::kDurable;
  int consecutive_failures_ = 0;
  int rearm_attempts_ = 0;
  std::int64_t rearm_backoff_ = 0;
  std::int64_t next_rearm_round_ = 0;

  std::uint64_t wal_failures_ = 0;
  std::uint64_t degrades_ = 0;
  std::uint64_t rearms_ = 0;
  std::uint64_t compactions_ = 0;
  util::Status last_error_;
};

}  // namespace runtime
}  // namespace cdt

#endif  // CDT_RUNTIME_DURABILITY_H_
