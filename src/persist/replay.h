// Replay side of record/replay: load a recorded event log, rebuild the
// run from its embedded config (every stream in the simulator derives
// from seeds, so the rebuild is exact), and byte-compare each re-executed
// round's canonical RoundReport encoding against the recorded payload.
// Any divergence — an economics change, a reordered draw, a numeric
// drift — fails loudly with the first divergent round. This is the
// replay-verified upgrade gate: tests/data/ carries a golden recorded
// trace that every build must replay bit-for-bit.
//
// Also hosts snapshot resume: restore an engine from a snapshot file and
// tail-replay the recorded rounds past it, verifying each, leaving a live
// run positioned exactly where the recording stopped.
//
// Full replay, snapshot resume and the hosted runtime's crash recovery all
// run the same loop, ReplayRecordedRounds.

#ifndef CDT_PERSIST_REPLAY_H_
#define CDT_PERSIST_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/cmab_hs.h"
#include "persist/event_log.h"
#include "util/status.h"

namespace cdt {
namespace persist {

struct RecordedRun;

/// An event log as replay needs it, from one read and one scan of the
/// file: the config, and each round's canonical payload bytes as a view
/// into the log's bytes, which the record owns. Every round payload was
/// decoded once on load, so a malformed one fails the load as it would a
/// full decode. Move-only: a copy would hold views into bytes it does not
/// own.
struct RecordedLog {
  RecordedLog() = default;
  RecordedLog(RecordedLog&&) = default;
  RecordedLog& operator=(RecordedLog&&) = default;
  RecordedLog(const RecordedLog&) = delete;
  RecordedLog& operator=(const RecordedLog&) = delete;

  core::MechanismConfig config;
  core::PolicySpec policy;
  /// CRC-32 of the config payload; pairs the log with snapshot files.
  std::uint32_t config_crc = 0;
  /// Rounds [1, base_round] were compacted away (they live only in the
  /// paired snapshot); the first round record is round base_round + 1.
  /// Zero for ordinary (non-rebased) logs.
  std::int64_t base_round = 0;
  /// The log's rounds are base_round + 1 .. base_round + round_count.
  std::int64_t round_count = 0;
  /// The raw canonical payload bytes of each round, in order (round
  /// base_round + i at index i-1). Replay compares against these, not a
  /// re-encoded decode — no codec round trip in the trust chain.
  std::vector<std::string_view> round_payloads;
  /// Rounds after which a snapshot was durably written, in order.
  std::vector<std::int64_t> snapshot_rounds;
  /// True when the log ended with a verified footer (clean finish).
  bool sealed = false;
  /// True when a truncated final record was absorbed (crash case).
  bool torn_tail = false;
  /// End of the last complete record, and the CRC chained over every
  /// round payload: with the fields above, where a writer reattaching to
  /// the unsealed log carries on (EventLogWriter::OpenForAppend).
  std::size_t valid_end = 0;
  std::uint32_t rolling_crc = 0;

  EventLogTail tail() const {
    return {valid_end, base_round, round_count, config_crc, rolling_crc};
  }

 private:
  friend util::Result<RecordedLog> LoadRecordedLog(const std::string&, bool);
  friend util::Result<RecordedRun> LoadRecordedRun(const std::string&, bool);
  /// The one loader: decodes each round into `*rounds` when it is given,
  /// else into one scratch report.
  static util::Result<RecordedLog> Load(
      const std::string& path, bool allow_torn_tail,
      std::vector<market::RoundReport>* rounds);

  /// The file's bytes; behind a pointer so that a move keeps every view.
  std::unique_ptr<const std::string> bytes_;
};

/// Loads a recorded log: ScanEventLog's verdict (any broken rule fails),
/// then the decoded config, the round payloads and the snapshot notes.
/// With `allow_torn_tail` the crash case (truncated final record, missing
/// footer) loads what is complete; without it any truncation or missing
/// footer is an error.
util::Result<RecordedLog> LoadRecordedLog(const std::string& path,
                                          bool allow_torn_tail = false);

/// A recorded log with every round also kept decoded, for tools that
/// analyse the rounds.
struct RecordedRun : RecordedLog {
  /// Decoded round reports, in order (round base_round + i at index i-1).
  std::vector<market::RoundReport> rounds;
};

/// LoadRecordedLog, keeping each decoded round.
util::Result<RecordedRun> LoadRecordedRun(const std::string& path,
                                          bool allow_torn_tail = false);

/// The canonical byte encoding replay compares — exposed so recorder,
/// replayer and tests share one definition.
std::string CanonicalRoundBytes(const market::RoundReport& report);

/// A seller leaving (`active` false) or returning, applied just before
/// round `effect_round` runs.
struct SellerFlip {
  std::int64_t effect_round = 1;
  int seller = -1;
  bool active = false;
};

/// Re-executes the recorded rounds (from, end] on `run`, which stands at
/// round `from` of the log, and byte-compares each with its recorded
/// payload; the first divergence is an Internal error naming the round and
/// the differing fields. `flips`, sorted by effect_round, apply just before
/// their round; those at or before `from` are already in the run's state,
/// those past the end apply after it. A flip's own status is ignored: a
/// refusal the live run saw repeats here.
util::Status ReplayRecordedRounds(const RecordedLog& recorded,
                                  const std::vector<SellerFlip>& flips,
                                  core::CmabHs* run);

/// Outcome of a successful verification.
struct ReplayResult {
  std::int64_t rounds_verified = 0;
};

/// Rebuilds the run from `recorded.config`/`policy`, re-executes every
/// recorded round and byte-compares. Returns the first divergence (round
/// number and differing field context in the message) as an Internal
/// error; OK means the build reproduces the recording bit-for-bit.
/// Rebased logs (base_round > 0) cannot be replayed from round 1 —
/// resume from their snapshot instead (FailedPrecondition).
util::Result<ReplayResult> VerifyReplay(const RecordedLog& recorded);

/// A run resumed from snapshot + tail-replay: `run` is live and
/// positioned after round `resumed_round` (the log's last round),
/// ready for RunRound to continue the campaign. Note the run's
/// MetricsCollector only covers post-snapshot rounds; campaign-level CSV
/// output should splice recorded rounds with live ones (see
/// tools/cdt_replay and the recovery test).
struct ResumedRun {
  std::unique_ptr<core::CmabHs> run;
  /// The round the snapshot covered through.
  std::int64_t snapshot_round = 0;
  /// Rounds consumed after tail-replay (snapshot + verified tail).
  std::int64_t resumed_round = 0;
};

/// Restores from `snapshot` (which must pair with `recorded` — config
/// CRCs are compared) and tail-replays recorded rounds
/// (snapshot_round, end], verifying each byte-for-byte.
util::Result<ResumedRun> ResumeFromSnapshot(const RecordedLog& recorded,
                                            const SnapshotFile& snapshot);

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_REPLAY_H_
