// cdt_fsck — offline WAL checker/repairer for a marketplace WAL
// directory. Checks every event log (*.cdtlog) against the same rules
// crash recovery and writer reattach apply (persist::ScanEventLog: framing,
// CRCs, record order, footer totals) and CRC-verifies every snapshot
// (*.cdtsnap):
//
//   * torn tails (crash mid-append) are truncated back to the last
//     complete record so crash recovery can reattach;
//   * irreparable artifacts (bit rot, framing damage) are quarantined —
//     renamed to <file>.quarantined — so recovery fails loudly with
//     NotFound instead of replaying poison;
//   * artifacts from a different format version are reported and left
//     intact (use a matching build to read them);
//   * orphaned atomic-write temp files (*.tmp) are swept when
//     --repair=true (report-only runs just count them).
//
//   cdt_fsck --wal-dir=DIR [--repair=true|false]
//            [--quarantine=true|false]
//
// --repair=false --quarantine=false is a pure read-only check. Exit code
// 0 = every artifact clean or repaired; 1 = at least one artifact
// quarantined or version-skewed (operator attention needed); 2 = usage /
// I/O error. Run this only while the service is stopped — the startup
// scrub inside cdt_service does the same work in-process.

#include <cstdio>
#include <string>

#include "persist/scrub.h"
#include "util/config.h"
#include "util/status.h"

namespace {

using namespace cdt;

int Fail(const util::Status& status) {
  std::fprintf(stderr, "cdt_fsck: %s\n", status.ToString().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = util::ConfigMap::FromArgs(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status());
  const util::ConfigMap& flags = parsed.value();

  auto wal_dir = flags.GetString("wal-dir", "");
  auto repair = flags.GetBool("repair", true);
  auto quarantine = flags.GetBool("quarantine", true);
  for (const util::Status& status :
       {wal_dir.status(), repair.status(), quarantine.status()}) {
    if (!status.ok()) return Fail(status);
  }
  if (wal_dir.value().empty()) {
    return Fail(util::Status::InvalidArgument(
        "usage: cdt_fsck --wal-dir=DIR [--repair=BOOL] "
        "[--quarantine=BOOL]"));
  }

  persist::ScrubOptions options;
  options.repair = repair.value();
  options.quarantine = quarantine.value();
  auto scrubbed = persist::ScrubWalDirectory(wal_dir.value(), options);
  if (!scrubbed.ok()) return Fail(scrubbed.status());
  const persist::ScrubReport& report = scrubbed.value();

  for (const persist::ScrubOutcome& file : report.files) {
    std::printf("%-12s %s%s%s\n", persist::ArtifactHealthName(file.health),
                file.path.c_str(), file.detail.empty() ? "" : "  — ",
                file.detail.c_str());
  }
  std::printf("scanned=%zu clean=%d repaired=%d quarantined=%d "
              "version_skew=%d orphan_temps_found=%d "
              "orphan_temps_removed=%d\n",
              report.files.size(), report.clean, report.repaired,
              report.quarantined, report.version_skew,
              report.orphan_temps_found, report.orphan_temps_removed);
  for (const auto& entry : report.quarantine_reasons) {
    std::printf("quarantined{reason=%s}=%d\n", entry.first.c_str(),
                entry.second);
  }
  if (!options.repair || !options.quarantine) {
    std::printf("(report-only flags set: nothing was modified beyond the "
                "selected actions)\n");
  }
  return (report.quarantined > 0 || report.version_skew > 0) ? 1 : 0;
}
