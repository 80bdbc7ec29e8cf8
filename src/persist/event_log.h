// The versioned, CRC-guarded binary event log behind record/replay.
//
// File layout:
//
//   [8-byte magic "CDTEVLOG"] [varint format version]
//   record*                    — each: [type byte] [varint payload length]
//                                      [payload] [fixed32 CRC-32 of
//                                       type byte + payload]
//
// Record types: kConfig (exactly one, first — the MechanismConfig +
// PolicySpec that rebuilt the run), kRound (one canonical RoundReport per
// settled round, in order), kSnapshotNote (marks that a snapshot file was
// durably written after the named round), kFooter (round count + a rolling
// CRC chained over every round payload — present only in cleanly finished
// logs), kRebase (immediately after kConfig: this log starts at
// base_round instead of 0 — rounds [1, base_round] live only in the
// paired snapshot; written by snapshot-compaction and degraded-mode
// re-arm).
//
// ScanEventLog is the one reader of this layout: writer reattach, the
// scrubber and the recovery loader all take its verdict, so a log the
// scrubber passes is one the writer may extend and recovery can load.
// It fails closed on an unknown format version (kVersionMismatch), on a
// CRC mismatch, unknown record type or oversized length in a complete
// record (kCorruption — bit rot), and on a record out of order
// (kParseError). A truncated final record (the crash case) is the torn
// tail; verification paths refuse it, crash recovery drops it.

#ifndef CDT_PERSIST_EVENT_LOG_H_
#define CDT_PERSIST_EVENT_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/cmab_hs.h"
#include "core/config.h"
#include "market/snapshot.h"
#include "market/types.h"
#include "util/status.h"

namespace cdt {
namespace persist {

/// Current event-log / snapshot-file format version. Bump on ANY layout
/// change — readers reject other versions outright (the fail-closed gate).
inline constexpr std::uint64_t kFormatVersion = 1;

/// File magics (8 bytes each).
inline constexpr char kLogMagic[9] = "CDTEVLOG";
inline constexpr char kSnapshotMagic[9] = "CDTSNAPS";

/// Record type tags.
enum class RecordType : std::uint8_t {
  kConfig = 0x01,
  kRound = 0x02,
  kSnapshotNote = 0x03,
  kFooter = 0x04,
  kRebase = 0x05,
};

/// One framed record; the payload view borrows the scanned bytes.
struct LogRecord {
  RecordType type = RecordType::kConfig;
  std::string_view payload;
};

/// The result of one pass over an event log's bytes.
struct EventLogScan {
  /// Every complete record before valid_end, in order.
  std::vector<LogRecord> records;
  /// End of the last complete record: where a torn tail is cut off and
  /// where a reattached writer resumes.
  std::size_t valid_end = 0;
  /// The bytes end inside a record (a crash tear).
  bool torn_tail = false;
  /// A footer matching the rounds ends the log.
  bool sealed = false;
  /// Rounds [1, base_round] were compacted away; the log's round records
  /// are base_round + 1 .. base_round + round_count.
  std::int64_t base_round = 0;
  std::int64_t round_count = 0;
  /// CRC-32 of the config payload, and the CRC chained over every round
  /// payload (what the footer commits).
  std::uint32_t config_crc = 0;
  std::uint32_t rolling_crc = 0;
  /// The first rule the bytes break (OK when none), and the scrub verdict
  /// for it: a quarantine reason, or "format version N" for version skew.
  /// The fields above describe the prefix read before the violation.
  util::Status status;
  std::string reason;
};

/// What a writer reattaching to an unsealed log carries on from: where the
/// last complete record ends (a torn tail past it is cut off) and the
/// scan's round count and CRCs.
struct EventLogTail {
  std::size_t valid_end = 0;
  std::int64_t base_round = 0;
  std::int64_t round_count = 0;
  std::uint32_t config_crc = 0;
  std::uint32_t rolling_crc = 0;
};

/// Walks an event log once and checks every rule of the format, in order:
///   * the magic, then the format version;
///   * per record: a known type, a payload of at most 64 MiB, the CRC;
///   * the config record exactly once, and first;
///   * a rebase record at most once, immediately after the config;
///   * round numbers gap-free from base_round + 1 (each round payload's
///     leading zigzag, without decoding the rest);
///   * every snapshot note names a round in [1, last round so far];
///   * the footer last, nothing after it, its round count and rolling CRC
///     matching the rounds.
/// A record cut off by the end of `bytes` is the torn tail, not a
/// violation.
EventLogScan ScanEventLog(std::string_view bytes);

/// Streaming writer. Records are flushed to the OS per append; Finish()
/// writes the footer and fsyncs, making the finished log durable. A log
/// abandoned without Finish() (crash) is still readable up to its last
/// complete record with allow_torn_tail.
class EventLogWriter {
 public:
  /// Creates/truncates `path` and writes the header + config record.
  static util::Result<std::unique_ptr<EventLogWriter>> Open(
      const std::string& path, const core::MechanismConfig& config,
      const core::PolicySpec& policy);

  /// Reopens an existing unfinished log to continue appending — the
  /// crash-recovery path. Truncates a torn final record at
  /// `tail.valid_end` and restores the writer's round count, config CRC
  /// and rolling CRC so appended rounds continue gap-free and the eventual
  /// footer covers the whole log. `tail` must come from a scan of the
  /// file as it stands, which found it unsealed.
  static util::Result<std::unique_ptr<EventLogWriter>> OpenForAppend(
      const std::string& path, const EventLogTail& tail);

  /// Starts a log whose first round will be `base_round + 1` — the
  /// compaction / degraded-mode re-arm path. Rounds [1, base_round] must
  /// be covered by a snapshot written BEFORE this call. The new log is
  /// built in a temp file and atomically renamed over `path`, so a crash
  /// mid-rebase leaves the previous log intact; the returned writer keeps
  /// appending to the renamed file. With `base_round == 0` this is
  /// Open() with an atomic swap.
  static util::Result<std::unique_ptr<EventLogWriter>> OpenRebased(
      const std::string& path, const core::MechanismConfig& config,
      const core::PolicySpec& policy, std::int64_t base_round);

  ~EventLogWriter();
  EventLogWriter(const EventLogWriter&) = delete;
  EventLogWriter& operator=(const EventLogWriter&) = delete;

  /// Appends one round record; rounds must arrive in order, gap-free.
  util::Status AppendRound(const market::RoundReport& report);

  /// Notes that a snapshot covering rounds [1, round] was durably written.
  util::Status AppendSnapshotNote(std::int64_t round);

  /// Writes the footer, flushes and fsyncs, closes the file. Idempotent;
  /// further appends fail. Errors are sticky — once any write fails the
  /// writer refuses everything after, returning the first error.
  util::Status Finish();

  std::int64_t rounds_written() const { return rounds_written_; }
  /// The round this log's numbering starts after (0 unless rebased).
  std::int64_t base_round() const { return base_round_; }
  /// CRC-32 of the config record's payload — ties snapshot files to the
  /// exact recorded configuration.
  std::uint32_t config_crc() const { return config_crc_; }
  const std::string& path() const { return path_; }

 private:
  EventLogWriter(std::string path, std::FILE* file);

  util::Status AppendRecord(RecordType type, std::string_view payload);

  std::string path_;
  std::FILE* file_;  // null once closed
  util::Status status_;
  /// One record's frame; released after a select-all round's record.
  std::string scratch_;
  std::int64_t rounds_written_ = 0;
  std::int64_t base_round_ = 0;
  std::uint32_t config_crc_ = 0;
  /// CRC chained over every round payload, committed in the footer.
  std::uint32_t rolling_crc_ = 0;
};

// --- typed payload helpers ---------------------------------------------

/// Encodes / decodes the kConfig payload (MechanismConfig + PolicySpec).
void EncodeConfigPayload(const core::MechanismConfig& config,
                         const core::PolicySpec& policy, std::string* out);
util::Status DecodeConfigPayload(std::string_view payload,
                                 core::MechanismConfig* config,
                                 core::PolicySpec* policy);

/// Footer payload: round count + rolling CRC over all round payloads.
struct FooterInfo {
  std::int64_t round_count = 0;
  std::uint32_t rolling_crc = 0;
};
void EncodeFooterPayload(const FooterInfo& footer, std::string* out);
util::Status DecodeFooterPayload(std::string_view payload,
                                 FooterInfo* footer);

/// Snapshot-note payload: the round the snapshot covers through.
util::Status DecodeSnapshotNotePayload(std::string_view payload,
                                       std::int64_t* round);

/// Rebase payload: the round this log's numbering starts after (the
/// first kRound record in a rebased log carries round base_round + 1).
util::Status DecodeRebasePayload(std::string_view payload,
                                 std::int64_t* base_round);

// --- snapshot files -----------------------------------------------------

/// A parsed snapshot file: the engine state plus the config CRC of the
/// event log it belongs to (restores refuse a mismatched pairing).
struct SnapshotFile {
  std::uint32_t config_crc = 0;
  market::EngineSnapshot snapshot;
};

/// Atomically writes a snapshot file (temp + fsync + rename; see
/// atomic_io.h) so a crash mid-write never corrupts the previous snapshot.
/// Takes a captured EngineSnapshot or a live engine's SnapshotView.
util::Status WriteSnapshotFile(const std::string& path,
                               std::uint32_t config_crc,
                               const market::EngineSnapshotView& snapshot);

/// Reads and validates a snapshot file (magic, version, CRC).
util::Result<SnapshotFile> ReadSnapshotFile(const std::string& path);

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_EVENT_LOG_H_
