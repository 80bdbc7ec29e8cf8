// RunRecorder: a RoundObserver that streams every settled round into an
// event log and periodically checkpoints the engine into an atomically
// written snapshot file — the producer side of record/replay and the one
// writer of every log and snapshot. Attach it to a TradingEngine (via
// CmabHs::mutable_engine()->AddObserver) before the first round; call
// Finish() after the campaign for a footer-sealed log. A storage error
// fails the round; runtime::DurabilityGuard wraps a recorder to absorb it.

#ifndef CDT_PERSIST_RECORDER_H_
#define CDT_PERSIST_RECORDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/cmab_hs.h"
#include "core/config.h"
#include "market/invariants.h"
#include "persist/event_log.h"
#include "util/status.h"

namespace cdt {
namespace persist {

class RunRecorder : public market::RoundObserver {
 public:
  struct Options {
    /// Event-log destination (created/truncated).
    std::string log_path;
    /// Snapshot destination; rewritten in place (atomically) at every
    /// checkpoint. Empty disables snapshots even if snapshot_every > 0.
    std::string snapshot_path;
    /// Rounds between engine snapshots; 0 disables. The snapshot after
    /// round r covers rounds [1, r]; restore = snapshot + tail-replay.
    std::int64_t snapshot_every = 0;
  };

  /// Opens the log and writes its config record. The config/policy pair
  /// must be the exact one the observed engine was built from — replay
  /// rebuilds the run from these bytes.
  static util::Result<std::unique_ptr<RunRecorder>> Create(
      Options options, const core::MechanismConfig& config,
      const core::PolicySpec& policy);

  /// Reattaches to an existing unfinished log (crash recovery): reopens
  /// `options.log_path` in append mode at `tail`, taken from the scan
  /// recovery already made, dropping a torn final record, and continues
  /// recording from the round after the last complete one. The observed
  /// engine must already be positioned there (snapshot restore + tail
  /// replay) — AppendRound enforces the gap-free round sequence.
  static util::Result<std::unique_ptr<RunRecorder>> Attach(
      Options options, const EventLogTail& tail);

  /// Starts a log whose first round follows `engine`'s current round
  /// (compaction, re-arm): durably writes a snapshot of `engine`, then
  /// atomically swaps a rebased log in over `options.log_path` and notes
  /// the snapshot in it. A crash in between leaves the previous log plus a
  /// newer snapshot, which still recovers. Needs a snapshot_path. Unlike
  /// the checkpoints, it runs no ledger audit: the caller runs
  /// TradingEngine::AuditInvariants first, before it dismantles the
  /// writers this recorder replaces.
  static util::Result<std::unique_ptr<RunRecorder>> Rebase(
      Options options, const core::MechanismConfig& config,
      const core::PolicySpec& policy, const market::TradingEngine& engine);

  /// Appends the round record; at checkpoint rounds also captures and
  /// durably writes a snapshot, then notes it in the log (the note is
  /// only present when the snapshot file already hit disk).
  util::Status OnRound(const market::TradingEngine& engine,
                       const market::RoundReport& report) override;

  /// Forces a checkpoint outside the snapshot_every cadence (e.g. a
  /// graceful drain's final snapshot). No-op when snapshots are disabled
  /// or no round has settled yet. Every checkpoint first runs the
  /// checker's O(M) ledger audit (TradingEngine::AuditInvariants); a
  /// violation returns its Internal status and writes no snapshot.
  util::Status CheckpointNow(const market::TradingEngine& engine);

  /// Seals the log with its footer (fsync + close). Idempotent. A crash
  /// before Finish leaves a torn but recoverable log.
  util::Status Finish();

  /// Seals the log and renames it to `path`, replacing any file there, so
  /// it stays behind as a footer-complete log of its own (compaction's
  /// retained segment). The recorder accepts no rounds afterwards.
  util::Status SealAs(const std::string& path);

  std::int64_t rounds_recorded() const { return log_->rounds_written(); }
  /// The round the log's numbering starts after (0 unless rebased).
  std::int64_t base_round() const { return log_->base_round(); }
  std::uint32_t config_crc() const { return log_->config_crc(); }

 private:
  RunRecorder(Options options, std::unique_ptr<EventLogWriter> log)
      : options_(std::move(options)), log_(std::move(log)) {}

  Options options_;
  std::unique_ptr<EventLogWriter> log_;
};

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_RECORDER_H_
