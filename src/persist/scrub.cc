#include "persist/scrub.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <utility>

#include "persist/atomic_io.h"
#include "persist/event_log.h"

namespace cdt {
namespace persist {

using util::Result;
using util::Status;

namespace {

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix.data(),
                   suffix.size()) == 0;
}

/// Moves an irreparable artifact aside so recovery sees NotFound (loud)
/// instead of poison. Report-only mode leaves the file in place.
Status QuarantineFile(const std::string& path, const ScrubOptions& options) {
  if (!options.quarantine) return Status::OK();
  const std::string target = path + ".quarantined";
  std::remove(target.c_str());
  if (std::rename(path.c_str(), target.c_str()) != 0) {
    return Status::IoError("cannot quarantine '" + path +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

/// Collects every regular file directly under `dir`. Traversal failures
/// (including mid-iteration ones, which the range-for idiom would throw
/// as filesystem_error) come back as IoError, never as an exception.
Status ListRegularFiles(const std::string& dir,
                        std::vector<std::string>* paths) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  const fs::directory_iterator end;
  // increment(ec) resets the iterator to end() on failure, so the loop
  // terminates and the error surfaces after it.
  for (; !ec && it != end; it.increment(ec)) {
    std::error_code type_ec;
    if (!it->is_regular_file(type_ec)) continue;
    paths->push_back(it->path().string());
  }
  if (ec) {
    return Status::IoError("cannot scan directory '" + dir +
                           "': " + ec.message());
  }
  return Status::OK();
}

}  // namespace

const char* ArtifactHealthName(ArtifactHealth health) {
  switch (health) {
    case ArtifactHealth::kClean:
      return "clean";
    case ArtifactHealth::kRepaired:
      return "repaired";
    case ArtifactHealth::kQuarantined:
      return "quarantined";
    case ArtifactHealth::kVersionSkew:
      return "version_skew";
  }
  return "unknown";
}

Result<ScrubOutcome> ScrubEventLogFile(const std::string& path,
                                       const ScrubOptions& options) {
  auto bytes = ReadFileBytes(path);
  CDT_RETURN_NOT_OK(bytes.status());
  const EventLogScan scan = ScanEventLog(bytes.value());

  // Version skew is left intact, a broken rule is quarantined, and a torn
  // tail is repaired.
  ScrubOutcome outcome;
  outcome.path = path;
  if (scan.status.code() == util::StatusCode::kVersionMismatch) {
    outcome.health = ArtifactHealth::kVersionSkew;
    outcome.detail = scan.reason;
    return outcome;
  }
  if (!scan.status.ok()) {
    outcome.health = ArtifactHealth::kQuarantined;
    outcome.detail = scan.reason;
    CDT_RETURN_NOT_OK(QuarantineFile(path, options));
    return outcome;
  }
  outcome.sealed = scan.sealed;
  if (scan.torn_tail) {
    outcome.health = ArtifactHealth::kRepaired;
    outcome.truncated_bytes =
        static_cast<std::int64_t>(bytes.value().size() - scan.valid_end);
    outcome.detail = "torn tail (" + std::to_string(outcome.truncated_bytes) +
                     " bytes)";
    if (options.repair &&
        ::truncate(path.c_str(), static_cast<off_t>(scan.valid_end)) != 0) {
      return Status::IoError("cannot truncate torn tail of '" + path +
                             "': " + std::strerror(errno));
    }
    return outcome;
  }
  outcome.health = ArtifactHealth::kClean;
  return outcome;
}

Result<ScrubOutcome> ScrubSnapshotFile(const std::string& path,
                                       const ScrubOptions& options) {
  ScrubOutcome outcome;
  outcome.path = path;
  auto snapshot = ReadSnapshotFile(path);
  if (snapshot.ok()) {
    outcome.health = ArtifactHealth::kClean;
    return outcome;
  }
  const Status& status = snapshot.status();
  switch (status.code()) {
    case util::StatusCode::kNotFound:
    case util::StatusCode::kIoError:
      return status;
    case util::StatusCode::kVersionMismatch:
      outcome.health = ArtifactHealth::kVersionSkew;
      outcome.detail = status.message();
      return outcome;
    default:
      // Snapshots are written atomically, so any damage is bit rot, not
      // a tear — there is no prefix worth saving.
      outcome.health = ArtifactHealth::kQuarantined;
      outcome.detail = "snapshot_corrupt";
      CDT_RETURN_NOT_OK(QuarantineFile(path, options));
      return outcome;
  }
}

Result<ScrubReport> ScrubWalDirectory(const std::string& dir,
                                      const ScrubOptions& options) {
  std::vector<std::string> files;
  CDT_RETURN_NOT_OK(ListRegularFiles(dir, &files));
  std::vector<std::string> logs;
  std::vector<std::string> snapshots;
  std::vector<std::string> temps;
  for (const std::string& path : files) {
    if (EndsWith(path, kTempSuffix)) {
      temps.push_back(path);
    } else if (EndsWith(path, ".cdtlog")) {
      logs.push_back(path);
    } else if (EndsWith(path, ".cdtsnap")) {
      snapshots.push_back(path);
    }
  }
  std::sort(temps.begin(), temps.end());
  std::sort(logs.begin(), logs.end());
  std::sort(snapshots.begin(), snapshots.end());

  ScrubReport report;
  for (const std::string& temp : temps) {
    ++report.orphan_temps_found;
    // Removing an orphan is a (safe) mutation all the same: report-only
    // mode must leave it in place, so the sweep rides the repair flag.
    if (options.repair && std::remove(temp.c_str()) == 0) {
      ++report.orphan_temps_removed;
    }
  }
  auto tally = [&report](ScrubOutcome outcome) {
    switch (outcome.health) {
      case ArtifactHealth::kClean:
        ++report.clean;
        break;
      case ArtifactHealth::kRepaired:
        ++report.repaired;
        break;
      case ArtifactHealth::kQuarantined:
        ++report.quarantined;
        ++report.quarantine_reasons[outcome.detail];
        break;
      case ArtifactHealth::kVersionSkew:
        ++report.version_skew;
        break;
    }
    report.files.push_back(std::move(outcome));
  };
  for (const std::string& path : logs) {
    auto outcome = ScrubEventLogFile(path, options);
    CDT_RETURN_NOT_OK(outcome.status());
    tally(std::move(outcome).value());
  }
  for (const std::string& path : snapshots) {
    auto outcome = ScrubSnapshotFile(path, options);
    CDT_RETURN_NOT_OK(outcome.status());
    tally(std::move(outcome).value());
  }
  return report;
}

Result<int> SweepOrphanTempFiles(const std::string& dir) {
  std::vector<std::string> files;
  CDT_RETURN_NOT_OK(ListRegularFiles(dir, &files));
  int removed = 0;
  for (const std::string& path : files) {
    if (EndsWith(path, kTempSuffix) && std::remove(path.c_str()) == 0) {
      ++removed;
    }
  }
  return removed;
}

}  // namespace persist
}  // namespace cdt
