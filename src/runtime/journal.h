// Seller-departure journal: the runtime-owned sidecar WAL that makes
// leave/return events crash-recoverable without touching the engine's
// event-log format. Round records stay a pure function of (config, seed);
// the journal pins each activity flip to the round cursor it took effect
// at (`effect_round` = the engine's next_round when the flip was applied),
// so recovery can interleave re-application with tail replay:
//
//   entries with effect_round <= snapshot round are already inside the
//   snapshot's seller_active bitmap; entries past it are re-applied when
//   the rebuilt engine's cursor reaches them.
//
// File layout: [8-byte magic "CDTRTJNL"] [varint format version] then one
// fixed-frame record per entry — [type byte] [zigzag effect_round]
// [zigzag seller] [fixed32 CRC-32 of the preceding bytes]. Every append
// is flushed before the corresponding engine state can advance, and the
// reader tolerates a torn final record (the crash case) while failing
// closed on CRC mismatch in a complete one.

#ifndef CDT_RUNTIME_JOURNAL_H_
#define CDT_RUNTIME_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "runtime/event.h"
#include "util/status.h"

namespace cdt {
namespace runtime {

/// One journaled activity flip.
struct JournalEntry {
  /// kSellerLeave or kSellerReturn only.
  EventType type = EventType::kSellerLeave;
  /// The engine's next_round when the flip was applied: the first round
  /// whose coalition selection saw the new activity state.
  std::int64_t effect_round = 1;
  int seller = -1;
};

/// Parsed journal: complete entries in append order.
struct JournalContents {
  std::vector<JournalEntry> entries;
  /// True when a truncated final record was dropped (crash tear).
  bool torn_tail = false;
  /// End of the last complete entry, where a reopened writer resumes; 0
  /// when there is no journal file.
  std::size_t valid_end = 0;
};

/// Reads `path`, validating magic/version and every record CRC. A missing
/// file is an empty journal (no flips ever happened); a torn tail is
/// absorbed and reported; corruption in a complete record fails closed.
util::Result<JournalContents> ReadJournal(const std::string& path);

/// Append-mode journal writer. Open() creates the file (with header) when
/// absent, otherwise truncates a torn final record before positioning at
/// the end — the same writer serves first-run and crash-recovery paths.
/// Appends flush to the OS before returning so the journal is never behind
/// the engine state it explains.
class JournalWriter {
 public:
  /// Reads and validates `path` with ReadJournal, then opens it.
  static util::Result<std::unique_ptr<JournalWriter>> Open(
      const std::string& path);

  /// Opens `path` from `contents`, what ReadJournal returned for the file
  /// as it stands (crash recovery has already read it).
  static util::Result<std::unique_ptr<JournalWriter>> Open(
      const std::string& path, const JournalContents& contents);

  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  util::Status Append(const JournalEntry& entry);

  /// fsync + close; idempotent. Errors are sticky like EventLogWriter's.
  util::Status Close();

  const std::string& path() const { return path_; }

 private:
  JournalWriter(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  std::string path_;
  std::FILE* file_;  // null once closed
  util::Status status_;
};

}  // namespace runtime
}  // namespace cdt

#endif  // CDT_RUNTIME_JOURNAL_H_
