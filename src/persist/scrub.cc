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
#include "persist/codec.h"
#include "persist/event_log.h"

namespace cdt {
namespace persist {

using util::Result;
using util::Status;

namespace {

constexpr std::size_t kMagicSize = 8;
constexpr std::uint64_t kMaxPayloadSize = 64ull << 20;

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
  const std::string& buffer = bytes.value();

  ScrubOutcome outcome;
  outcome.path = path;
  auto quarantine = [&](std::string reason) -> Result<ScrubOutcome> {
    outcome.health = ArtifactHealth::kQuarantined;
    outcome.detail = std::move(reason);
    CDT_RETURN_NOT_OK(QuarantineFile(path, options));
    return outcome;
  };

  if (buffer.size() < kMagicSize ||
      std::memcmp(buffer.data(), kLogMagic, kMagicSize) != 0) {
    return quarantine("bad_magic");
  }
  ByteReader header(std::string_view(buffer).substr(kMagicSize));
  std::uint64_t version = 0;
  if (!header.ReadVarint64(&version).ok()) {
    return quarantine("truncated_header");
  }
  if (version != kFormatVersion) {
    outcome.health = ArtifactHealth::kVersionSkew;
    outcome.detail = "format version " + std::to_string(version);
    return outcome;
  }

  // Same walk as EventLogWriter::OpenForAppend, but every fail-closed
  // verdict becomes a quarantine and a torn tail becomes a repair.
  std::size_t valid_end = kMagicSize + header.position();
  std::size_t pos = valid_end;
  bool saw_config = false;
  bool saw_footer = false;
  bool saw_rebase = false;
  std::int64_t base_round = 0;
  std::int64_t rounds = 0;
  std::uint32_t rolling_crc = 0;
  FooterInfo footer;
  bool torn = false;
  while (pos < buffer.size()) {
    if (saw_footer) return quarantine("records_after_footer");
    ByteReader reader(std::string_view(buffer).substr(pos));
    std::uint8_t type = 0;
    std::uint64_t length = 0;
    std::string_view payload;
    std::uint32_t stored_crc = 0;
    Status status = reader.ReadByte(&type);
    if (status.ok() &&
        (type < static_cast<std::uint8_t>(RecordType::kConfig) ||
         type > static_cast<std::uint8_t>(RecordType::kRebase))) {
      return quarantine("unknown_record_type");
    }
    if (status.ok()) status = reader.ReadVarint64(&length);
    if (status.ok() && length > kMaxPayloadSize) {
      return quarantine("oversized_payload");
    }
    if (status.ok()) {
      status = reader.ReadBytes(static_cast<std::size_t>(length), &payload);
    }
    if (status.ok()) status = reader.ReadFixed32(&stored_crc);
    if (!status.ok()) {
      torn = true;
      break;
    }
    std::uint32_t crc = Crc32(std::string_view(buffer).substr(pos, 1));
    crc = Crc32(payload, crc);
    if (crc != stored_crc) return quarantine("record_crc_mismatch");
    switch (static_cast<RecordType>(type)) {
      case RecordType::kConfig:
        if (saw_config) return quarantine("duplicate_config");
        saw_config = true;
        break;
      case RecordType::kRound:
        rolling_crc = Crc32(payload, rolling_crc);
        ++rounds;
        break;
      case RecordType::kSnapshotNote:
        break;
      case RecordType::kRebase: {
        if (!saw_config || saw_rebase || rounds != 0) {
          return quarantine("misplaced_rebase");
        }
        if (!DecodeRebasePayload(payload, &base_round).ok()) {
          return quarantine("bad_rebase");
        }
        saw_rebase = true;
        rounds = base_round;
        break;
      }
      case RecordType::kFooter:
        if (!DecodeFooterPayload(payload, &footer).ok()) {
          return quarantine("bad_footer");
        }
        saw_footer = true;
        break;
    }
    pos += reader.position();
    valid_end = pos;
  }

  if (!saw_config) {
    // Nothing recoverable survives without the config record.
    return quarantine("no_config");
  }
  if (saw_footer &&
      (footer.round_count != rounds || footer.rolling_crc != rolling_crc)) {
    return quarantine("footer_mismatch");
  }
  outcome.sealed = saw_footer;

  if (torn) {
    outcome.health = ArtifactHealth::kRepaired;
    outcome.truncated_bytes =
        static_cast<std::int64_t>(buffer.size() - valid_end);
    outcome.detail = "torn tail (" + std::to_string(outcome.truncated_bytes) +
                     " bytes)";
    if (options.repair &&
        ::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
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
