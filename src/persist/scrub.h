// Self-healing WAL scrub: check event logs and snapshot files, repair
// torn tails by truncating back to the last complete record, quarantine
// irreparable artifacts (rename to *.quarantined) with counted reasons,
// and sweep orphaned AtomicWriteFile temps.
//
// An event log is held to the same rules as crash recovery: the scrub
// takes persist::ScanEventLog's verdict, the one the recovery loader and
// writer reattach take. So a log scrubbed clean or repaired is one the
// writer may reattach to (if unsealed) and recovery can load.
//
// Outcome taxonomy per artifact:
//   kClean       — every rule holds (sealed logs: footer too).
//   kRepaired    — a torn tail was truncated away; the surviving prefix
//                  verifies. Repair is idempotent: scrubbing a repaired
//                  file again is a no-op byte-for-byte.
//   kQuarantined — corruption inside a complete record (bit rot), a bad
//                  footer, or records out of order; the file is
//                  renamed to `<path>.quarantined` so recovery fails
//                  loudly (NotFound) instead of consuming poison.
//   kVersionSkew — a different format version; the file is left intact
//                  (a newer/older build owns it; not bit rot).
//
// Journals are deliberately NOT scrubbed here: runtime::JournalWriter::
// Open already truncates torn journal tails itself on every open, and a
// journal CRC mismatch must fail recovery (the flips cannot be
// reconstructed), which quarantining the whole marketplace handles.

#ifndef CDT_PERSIST_SCRUB_H_
#define CDT_PERSIST_SCRUB_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace persist {

enum class ArtifactHealth { kClean, kRepaired, kQuarantined, kVersionSkew };

const char* ArtifactHealthName(ArtifactHealth health);

struct ScrubOutcome {
  std::string path;
  ArtifactHealth health = ArtifactHealth::kClean;
  /// Human-readable reason ("torn tail", "record CRC mismatch", ...).
  std::string detail;
  /// Bytes dropped by a tail repair.
  std::int64_t truncated_bytes = 0;
  /// Event logs only: a verified footer was present.
  bool sealed = false;
};

struct ScrubOptions {
  /// Truncate torn tails in place and (directory scrubs) remove orphaned
  /// *.tmp files. Off = report-only.
  bool repair = true;
  /// Rename irreparable artifacts to *.quarantined. Off = report-only.
  bool quarantine = true;
};

/// Scrubs one event log / snapshot file. NotFound if missing; IoError
/// only when the filesystem itself fails (verdicts, including
/// quarantine, are reported in the outcome, not as errors).
util::Result<ScrubOutcome> ScrubEventLogFile(const std::string& path,
                                             const ScrubOptions& options);
util::Result<ScrubOutcome> ScrubSnapshotFile(const std::string& path,
                                             const ScrubOptions& options);

struct ScrubReport {
  std::vector<ScrubOutcome> files;
  int clean = 0;
  int repaired = 0;
  int quarantined = 0;
  int version_skew = 0;
  int orphan_temps_found = 0;
  int orphan_temps_removed = 0;  // <= found; 0 when repair is off
  /// Quarantine reason -> count (for metrics / operator triage).
  std::map<std::string, int> quarantine_reasons;
};

/// Scrubs every *.cdtlog and *.cdtsnap directly under `dir` (sorted
/// order, deterministic) and, when `options.repair` is set, removes
/// orphaned *.tmp files (report-only runs just count them). Skips
/// *.quarantined and *.old artifacts.
util::Result<ScrubReport> ScrubWalDirectory(const std::string& dir,
                                            const ScrubOptions& options);

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_SCRUB_H_
