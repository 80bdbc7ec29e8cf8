// HostedMarketplace: one marketplace under runtime supervision — a live
// CmabHs run wired through the persistence layer so every settled round is
// write-ahead logged, checkpointed, and rebuildable after a crash.
//
// Per-marketplace WAL files, all under the service's wal_dir:
//
//   <id>.cdtlog   — event log (config + per-round records + footer)
//   <id>.cdtsnap  — latest engine snapshot, atomically rewritten
//   <id>.events   — seller leave/return journal (see journal.h)
//
// Recovery contract (the chaos harness asserts it byte-for-byte): Recover()
// rebuilds the engine as `snapshot + verified tail-replay`, re-applying
// journaled activity flips at the exact round cursors they originally took
// effect, then reattaches the log and journal in append mode — the resumed
// marketplace continues producing the same round bytes an uninterrupted
// run would have. A compacted (rebased) log replays only its tail past the
// base round and therefore requires its snapshot.
//
// Storage faults do not crash the marketplace: the WAL writers live behind
// a DurabilityGuard circuit breaker (durable → degraded → failed). Only a
// guard whose re-arm budget is exhausted quarantines the marketplace, and
// that transition is explicitly counted.

#ifndef CDT_RUNTIME_MARKETPLACE_H_
#define CDT_RUNTIME_MARKETPLACE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/cmab_hs.h"
#include "runtime/durability.h"
#include "runtime/event.h"
#include "runtime/journal.h"
#include "util/status.h"

namespace cdt {
namespace runtime {

/// WAL file locations for marketplace `id` under `wal_dir`.
std::string MarketplaceLogPath(const std::string& wal_dir,
                               const std::string& id);
std::string MarketplaceSnapshotPath(const std::string& wal_dir,
                                    const std::string& id);
std::string MarketplaceJournalPath(const std::string& wal_dir,
                                   const std::string& id);

class HostedMarketplace {
 public:
  enum class State {
    kActive,        // accepting and executing events
    kQuarantined,   // isolated after an engine error; events are shed
    kBudgetStopped, // consumer budget exhausted; round events are shed
    kDone,          // all configured rounds settled; round events are shed
    kClosed,        // WAL sealed (FinishWal ran); every event is shed
  };

  struct Options {
    /// Directory holding every marketplace's WAL files. Must exist.
    std::string wal_dir;
    /// Rounds between engine checkpoints; 0 disables snapshots (recovery
    /// then replays from round 1).
    std::int64_t snapshot_every = 0;
    /// Durability breaker / compaction knobs (see DurabilityGuard).
    DurabilityGuard::Tuning durability;
  };

  /// Admits a fresh marketplace: builds the run from `spec`, opens its WAL
  /// (truncating leftovers from a previous incarnation of the id) and
  /// starts recording.
  static util::Result<std::unique_ptr<HostedMarketplace>> Create(
      const std::string& id, const MarketplaceSpec& spec,
      const Options& options);

  /// Rebuilds a marketplace from its WAL after a crash: loads the torn
  /// log, restores the latest usable snapshot (or replays from round 1,
  /// counted in cdt_runtime_recovery_full_replays_total by reason),
  /// re-applies journaled activity flips at their recorded cursors while
  /// byte-verifying the replayed tail, then reopens log + journal in
  /// append mode. Reads each of the three files once. A sealed log
  /// recovers into kClosed (read-only).
  static util::Result<std::unique_ptr<HostedMarketplace>> Recover(
      const std::string& id, const Options& options);

  /// Applies one event, running at most `max_rounds` trading rounds in
  /// this dispatch (deadline-bounded processing — the shard re-enqueues
  /// leftovers). `*rounds_remaining` reports the rounds still owed by a
  /// demand/tick event; state transitions (budget stop, completion) zero
  /// it. Event types that cannot apply in the current state are shed
  /// silently (OK, remaining 0) — the admission layer already counted
  /// them. An engine failure quarantines the marketplace and surfaces the
  /// error to the shard.
  util::Status ApplyEvent(const Event& event, std::int64_t max_rounds,
                          std::int64_t* rounds_remaining);

  /// Graceful drain: final snapshot, footer-sealed log, synced journal.
  /// Idempotent; the marketplace is kClosed afterwards. Closing a
  /// marketplace before its last round first runs the checker's O(M)
  /// ledger audit, whose violation is returned (the WAL is sealed anyway).
  util::Status FinishWal();

  const std::string& id() const { return id_; }
  State state() const { return state_; }
  /// Rounds settled so far (the engine's cursor).
  std::int64_t rounds_settled() const {
    return run_->engine().current_round();
  }
  std::int64_t total_rounds() const { return run_->config().num_rounds; }
  const core::CmabHs& run() const { return *run_; }

  void Quarantine() { if (state_ == State::kActive) state_ = State::kQuarantined; }

  /// The durability breaker (null once kClosed via a sealed recovery).
  const DurabilityGuard* guard() const { return guard_; }

  /// "active", "quarantined", "budget_stopped", "done", "closed".
  static const char* StateName(State state);

 private:
  HostedMarketplace(std::string id, std::unique_ptr<core::CmabHs> run)
      : id_(std::move(id)), run_(std::move(run)) {}

  /// Runs up to `budget` rounds, updating state on budget stop or
  /// completion. Returns rounds actually settled via `*settled`.
  util::Status RunRounds(std::int64_t budget, std::int64_t* settled);

  /// Quarantines (with the durability-specific counter) when the guard's
  /// breaker exhausted its re-arm budget.
  void QuarantineIfGuardFailed();

  std::string id_;
  std::unique_ptr<core::CmabHs> run_;
  DurabilityGuard* guard_ = nullptr;  // owned by the engine (observer)
  State state_ = State::kActive;
};

}  // namespace runtime
}  // namespace cdt

#endif  // CDT_RUNTIME_MARKETPLACE_H_
