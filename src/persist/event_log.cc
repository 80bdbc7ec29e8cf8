#include "persist/event_log.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

#include "persist/atomic_io.h"
#include "persist/codec.h"
#include "persist/io_hooks.h"
#include "persist/serialize.h"

namespace cdt {
namespace persist {

using util::Result;
using util::Status;

namespace {

constexpr std::size_t kMagicSize = 8;

/// Upper bound on a single record payload (64 MiB) — rejects absurd
/// lengths from corrupt input before any allocation or long skip.
constexpr std::uint64_t kMaxPayloadSize = 64ull << 20;

Status WriteError(const std::string& path) {
  return Status::IoError("event log write to '" + path +
                         "' failed: " + std::strerror(errno));
}

bool KnownRecordType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(RecordType::kConfig) &&
         type <= static_cast<std::uint8_t>(RecordType::kRebase);
}

}  // namespace

// --- EventLogWriter -----------------------------------------------------

EventLogWriter::EventLogWriter(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {}

EventLogWriter::~EventLogWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<EventLogWriter>> EventLogWriter::Open(
    const std::string& path, const core::MechanismConfig& config,
    const core::PolicySpec& policy) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create event log '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<EventLogWriter> writer(
      new EventLogWriter(path, file));

  std::string header(kLogMagic, kMagicSize);
  PutVarint64(&header, kFormatVersion);
  if (std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
    return WriteError(path);
  }

  std::string payload;
  EncodeConfigPayload(config, policy, &payload);
  writer->config_crc_ = Crc32(payload);
  CDT_RETURN_NOT_OK(writer->AppendRecord(RecordType::kConfig, payload));
  return writer;
}

Result<std::unique_ptr<EventLogWriter>> EventLogWriter::OpenForAppend(
    const std::string& path, const EventLogTail& tail) {
  // Drop a torn final record by truncating back to valid_end.
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return Status::IoError("cannot reopen event log '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<EventLogWriter> writer(new EventLogWriter(path, file));
  if (::ftruncate(fileno(file), static_cast<off_t>(tail.valid_end)) != 0 ||
      std::fseek(file, static_cast<long>(tail.valid_end), SEEK_SET) != 0) {
    return WriteError(path);
  }
  writer->rounds_written_ = tail.base_round + tail.round_count;
  writer->base_round_ = tail.base_round;
  writer->config_crc_ = tail.config_crc;
  writer->rolling_crc_ = tail.rolling_crc;
  return writer;
}

Result<std::unique_ptr<EventLogWriter>> EventLogWriter::OpenRebased(
    const std::string& path, const core::MechanismConfig& config,
    const core::PolicySpec& policy, std::int64_t base_round) {
  if (base_round < 0) {
    return Status::InvalidArgument("rebase round must be >= 0, got " +
                                   std::to_string(base_round));
  }
  // Build the new log in a temp file and atomically swap it over `path`:
  // a crash mid-rebase leaves the previous log (and the fresh snapshot
  // written before this call) intact, so recovery still has a consistent
  // pair. The FILE* stays valid across the rename, so the returned
  // writer appends to the already-renamed file.
  const std::string temp_path = path + kTempSuffix;
  std::FILE* file = std::fopen(temp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create event log '" + temp_path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<EventLogWriter> writer(new EventLogWriter(path, file));

  Status status;
  std::string header(kLogMagic, kMagicSize);
  PutVarint64(&header, kFormatVersion);
  if (std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
    status = WriteError(temp_path);
  }
  if (status.ok()) {
    std::string payload;
    EncodeConfigPayload(config, policy, &payload);
    writer->config_crc_ = Crc32(payload);
    status = writer->AppendRecord(RecordType::kConfig, payload);
  }
  if (status.ok() && base_round > 0) {
    std::string payload;
    PutZigzag64(&payload, base_round);
    status = writer->AppendRecord(RecordType::kRebase, payload);
  }
  bool injected = false;
  if (status.ok()) {
    const IoDecision fsync_fault = IoHooks::Instance().Check(IoOp::kFsync);
    if (fsync_fault.error != 0) {
      errno = fsync_fault.error;
      status = WriteError(temp_path);
      injected = true;
    } else if (std::fflush(file) != 0 || ::fsync(fileno(file)) != 0) {
      status = WriteError(temp_path);
    }
  }
  if (status.ok()) {
    const IoDecision rename_fault = IoHooks::Instance().Check(IoOp::kRename);
    if (rename_fault.error != 0) {
      errno = rename_fault.error;
      status = WriteError(path);
      injected = true;
    } else if (::rename(temp_path.c_str(), path.c_str()) != 0) {
      status = WriteError(path);
    }
  }
  if (!status.ok()) {
    writer.reset();  // closes the FILE*
    // Injected faults model a crash before cleanup — leave the temp for
    // the orphan sweep; real failures clean up immediately.
    if (!injected) ::unlink(temp_path.c_str());
    return status;
  }
  writer->rounds_written_ = base_round;
  writer->base_round_ = base_round;
  return writer;
}

Status EventLogWriter::AppendRecord(RecordType type,
                                    std::string_view payload) {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) {
    return Status::FailedPrecondition("event log already finished");
  }
  scratch_.clear();
  PutByte(&scratch_, static_cast<std::uint8_t>(type));
  PutVarint64(&scratch_, payload.size());
  scratch_.append(payload.data(), payload.size());
  // CRC covers type byte + payload (not the length, which framing guards).
  std::uint32_t crc = Crc32(std::string_view(&scratch_[0], 1));
  crc = Crc32(payload, crc);
  PutFixed32(&scratch_, crc);
  const IoDecision write_fault = IoHooks::Instance().Check(IoOp::kWrite);
  if (write_fault.error != 0) {
    // Simulated device failure: a short write leaves a torn frame (the
    // tail-repair case); either way the writer goes sticky-failed.
    if (write_fault.short_write && scratch_.size() > 1) {
      (void)std::fwrite(scratch_.data(), 1, scratch_.size() / 2, file_);
      (void)std::fflush(file_);
    }
    errno = write_fault.error;
    status_ = WriteError(path_);
    return status_;
  }
  if (std::fwrite(scratch_.data(), 1, scratch_.size(), file_) !=
          scratch_.size() ||
      std::fflush(file_) != 0) {
    status_ = WriteError(path_);
    return status_;
  }
  return Status::OK();
}

Status EventLogWriter::AppendRound(const market::RoundReport& report) {
  if (!status_.ok()) return status_;
  if (report.round != rounds_written_ + 1) {
    return Status::InvalidArgument(
        "event log rounds must be gap-free: expected round " +
        std::to_string(rounds_written_ + 1) + ", got " +
        std::to_string(report.round));
  }
  std::string payload;
  EncodeRoundReport(report, &payload);
  const Status appended = AppendRecord(RecordType::kRound, payload);
  // A select-all round's record holds M sellers, not K: release the frame
  // scratch it grew instead of holding its high-water mark.
  if (report.initial_exploration) std::string().swap(scratch_);
  CDT_RETURN_NOT_OK(appended);
  rolling_crc_ = Crc32(payload, rolling_crc_);
  ++rounds_written_;
  return Status::OK();
}

Status EventLogWriter::AppendSnapshotNote(std::int64_t round) {
  std::string payload;
  PutZigzag64(&payload, round);
  return AppendRecord(RecordType::kSnapshotNote, payload);
}

Status EventLogWriter::Finish() {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) return Status::OK();
  std::string payload;
  EncodeFooterPayload({rounds_written_, rolling_crc_}, &payload);
  CDT_RETURN_NOT_OK(AppendRecord(RecordType::kFooter, payload));
  Status status;
  const IoDecision fsync_fault = IoHooks::Instance().Check(IoOp::kFsync);
  if (fsync_fault.error != 0) {
    errno = fsync_fault.error;
    status = WriteError(path_);
  } else if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    status = WriteError(path_);
  }
  if (std::fclose(file_) != 0 && status.ok()) {
    status = WriteError(path_);
  }
  file_ = nullptr;
  status_ = status.ok() ? Status::OK()
                        : Status::IoError("event log finish failed: " +
                                          status.message());
  return status_;
}

// --- ScanEventLog -------------------------------------------------------

EventLogScan ScanEventLog(std::string_view bytes) {
  EventLogScan scan;
  auto fail = [&scan](const char* reason, Status status) {
    scan.reason = reason;
    scan.status = std::move(status);
    return std::move(scan);
  };

  if (bytes.size() < kMagicSize ||
      std::memcmp(bytes.data(), kLogMagic, kMagicSize) != 0) {
    return fail("bad_magic", Status::ParseError("not a CDT event log"));
  }
  ByteReader header(bytes.substr(kMagicSize));
  std::uint64_t version = 0;
  if (!header.ReadVarint64(&version).ok()) {
    return fail("truncated_header",
                Status::ParseError("event log header truncated"));
  }
  if (version != kFormatVersion) {
    // Distinct from kCorruption so operators can tell a build mismatch
    // from bit rot.
    scan.reason = "format version " + std::to_string(version);
    scan.status = Status::VersionMismatch(
        "event log has format version " + std::to_string(version) +
        "; this build reads only version " + std::to_string(kFormatVersion));
    return scan;
  }

  std::size_t pos = kMagicSize + header.position();
  scan.valid_end = pos;
  FooterInfo footer;
  while (pos < bytes.size()) {
    if (scan.sealed) {
      return fail("records_after_footer",
                  Status::ParseError("event log has bytes after its footer"));
    }
    ByteReader reader(bytes.substr(pos));
    std::uint8_t type = 0;
    std::uint64_t length = 0;
    std::string_view payload;
    std::uint32_t stored_crc = 0;
    Status frame = reader.ReadByte(&type);
    if (frame.ok() && !KnownRecordType(type)) {
      return fail("unknown_record_type",
                  Status::Corruption("unknown event-log record type byte " +
                                     std::to_string(int{type})));
    }
    if (frame.ok()) frame = reader.ReadVarint64(&length);
    if (frame.ok() && length > kMaxPayloadSize) {
      return fail("oversized_payload",
                  Status::Corruption("event-log record payload length " +
                                     std::to_string(length) +
                                     " exceeds limit"));
    }
    if (frame.ok()) {
      frame = reader.ReadBytes(static_cast<std::size_t>(length), &payload);
    }
    if (frame.ok()) frame = reader.ReadFixed32(&stored_crc);
    if (!frame.ok()) {
      scan.torn_tail = true;
      break;
    }
    // The CRC covers the type byte and the payload.
    const std::uint32_t type_crc = Crc32(bytes.substr(pos, 1));
    const std::uint32_t record_crc = Crc32(payload, type_crc);
    if (record_crc != stored_crc) {
      return fail("record_crc_mismatch",
                  Status::Corruption("event-log record CRC mismatch at "
                                     "offset " + std::to_string(pos)));
    }
    // Any other record that comes first fails below (a footer only as the
    // last record), so while the walk goes on, records[0] is the config.
    const std::int64_t last_round = scan.base_round + scan.round_count;
    const auto record_type = static_cast<RecordType>(type);
    switch (record_type) {
      case RecordType::kConfig:
        if (!scan.records.empty()) {
          return fail("duplicate_config",
                      Status::ParseError("event log has two config records"));
        }
        scan.config_crc = Crc32(payload);
        break;
      case RecordType::kRound: {
        if (scan.records.empty()) {
          return fail("round_before_config",
                      Status::ParseError(
                          "event log round record before config record"));
        }
        std::int64_t round = 0;
        if (!ByteReader(payload).ReadZigzag64(&round).ok() ||
            round != last_round + 1) {
          return fail("round_out_of_order",
                      Status::ParseError(
                          "event log rounds out of order: expected round " +
                          std::to_string(last_round + 1) + ", got " +
                          std::to_string(round)));
        }
        // The rolling chain continues over the same payload from its own
        // value instead of type_crc. The two CRCs differ by that change
        // of seed carried over the payload, so the chain follows from
        // the record CRC without a second pass: Crc32(payload, rolling).
        scan.rolling_crc =
            Crc32Combine(scan.rolling_crc ^ type_crc, record_crc,
                         static_cast<std::uint32_t>(payload.size()));
        ++scan.round_count;
        break;
      }
      case RecordType::kSnapshotNote: {
        std::int64_t round = 0;
        if (!DecodeSnapshotNotePayload(payload, &round).ok() || round < 1 ||
            round > last_round) {
          return fail("misplaced_snapshot_note",
                      Status::ParseError(
                          "snapshot note for round " + std::to_string(round) +
                          " does not follow that round's record"));
        }
        break;
      }
      case RecordType::kRebase: {
        if (scan.records.size() != 1) {
          return fail("misplaced_rebase",
                      Status::ParseError(
                          "rebase record out of position (must immediately "
                          "follow the config record)"));
        }
        Status decoded = DecodeRebasePayload(payload, &scan.base_round);
        if (!decoded.ok()) return fail("bad_rebase", std::move(decoded));
        break;
      }
      case RecordType::kFooter: {
        Status decoded = DecodeFooterPayload(payload, &footer);
        if (!decoded.ok()) return fail("bad_footer", std::move(decoded));
        scan.sealed = true;
        break;
      }
    }
    scan.records.push_back({record_type, payload});
    pos += reader.position();
    scan.valid_end = pos;
  }

  if (scan.records.empty() ||
      scan.records.front().type != RecordType::kConfig) {
    return fail("no_config", Status::ParseError(
                                 "event log has no complete config record"));
  }
  const std::int64_t last_round = scan.base_round + scan.round_count;
  if (scan.sealed && footer.round_count != last_round) {
    return fail("footer_mismatch",
                Status::ParseError("footer claims " +
                                   std::to_string(footer.round_count) +
                                   " rounds, log holds " +
                                   std::to_string(last_round)));
  }
  if (scan.sealed && footer.rolling_crc != scan.rolling_crc) {
    return fail("footer_mismatch",
                Status::ParseError("footer rolling CRC mismatch"));
  }
  return scan;
}

// --- typed payload helpers ---------------------------------------------

void EncodeConfigPayload(const core::MechanismConfig& config,
                         const core::PolicySpec& policy, std::string* out) {
  EncodeMechanismConfig(config, out);
  EncodePolicySpec(policy, out);
}

Status DecodeConfigPayload(std::string_view payload,
                           core::MechanismConfig* config,
                           core::PolicySpec* policy) {
  ByteReader reader(payload);
  CDT_RETURN_NOT_OK(DecodeMechanismConfig(&reader, config));
  CDT_RETURN_NOT_OK(DecodePolicySpec(&reader, policy));
  if (!reader.empty()) {
    return Status::ParseError("trailing bytes after config payload");
  }
  return Status::OK();
}

void EncodeFooterPayload(const FooterInfo& footer, std::string* out) {
  PutZigzag64(out, footer.round_count);
  PutFixed32(out, footer.rolling_crc);
}

Status DecodeFooterPayload(std::string_view payload, FooterInfo* footer) {
  ByteReader reader(payload);
  CDT_RETURN_NOT_OK(reader.ReadZigzag64(&footer->round_count));
  CDT_RETURN_NOT_OK(reader.ReadFixed32(&footer->rolling_crc));
  if (!reader.empty()) {
    return Status::ParseError("trailing bytes after footer payload");
  }
  return Status::OK();
}

Status DecodeSnapshotNotePayload(std::string_view payload,
                                 std::int64_t* round) {
  ByteReader reader(payload);
  CDT_RETURN_NOT_OK(reader.ReadZigzag64(round));
  if (!reader.empty()) {
    return Status::ParseError("trailing bytes after snapshot note");
  }
  return Status::OK();
}

Status DecodeRebasePayload(std::string_view payload,
                           std::int64_t* base_round) {
  ByteReader reader(payload);
  CDT_RETURN_NOT_OK(reader.ReadZigzag64(base_round));
  if (!reader.empty()) {
    return Status::ParseError("trailing bytes after rebase record");
  }
  if (*base_round < 0) {
    return Status::ParseError("negative rebase round " +
                              std::to_string(*base_round));
  }
  return Status::OK();
}

// --- snapshot files -----------------------------------------------------

Status WriteSnapshotFile(const std::string& path, std::uint32_t config_crc,
                         const market::EngineSnapshotView& snapshot) {
  // One buffer, allocated once: the header, then the payload (config CRC
  // and snapshot) encoded in place, then the payload's CRC.
  std::string header(kSnapshotMagic, kMagicSize);
  PutVarint64(&header, kFormatVersion);
  const std::size_t payload = 4 + EngineSnapshotSize(snapshot);
  PutVarint64(&header, payload);
  const std::size_t size = header.size() + payload + 4;
  std::unique_ptr<char[]> bytes(new char[size]);
  std::memcpy(bytes.get(), header.data(), header.size());
  char* body = bytes.get() + header.size();
  char* end = EncodeEngineSnapshotAt(snapshot, PutFixed32At(body, config_crc));
  PutFixed32At(end, Crc32(std::string_view(body, payload)));
  return AtomicWriteFile(path, std::string_view(bytes.get(), size));
}

Result<SnapshotFile> ReadSnapshotFile(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  CDT_RETURN_NOT_OK(bytes.status());
  const std::string& buffer = bytes.value();

  if (buffer.size() < kMagicSize ||
      std::memcmp(buffer.data(), kSnapshotMagic, kMagicSize) != 0) {
    return Status::ParseError("'" + path + "' is not a CDT snapshot file");
  }
  ByteReader reader(std::string_view(buffer).substr(kMagicSize));
  std::uint64_t version;
  CDT_RETURN_NOT_OK(reader.ReadVarint64(&version));
  if (version != kFormatVersion) {
    return Status::VersionMismatch(
        "snapshot file '" + path + "' has format version " +
        std::to_string(version) + "; this build reads only version " +
        std::to_string(kFormatVersion));
  }
  std::uint64_t length;
  CDT_RETURN_NOT_OK(reader.ReadVarint64(&length));
  if (length > kMaxPayloadSize || length > reader.remaining()) {
    return Status::ParseError("snapshot payload length corrupt");
  }
  std::string_view payload;
  CDT_RETURN_NOT_OK(reader.ReadBytes(static_cast<std::size_t>(length),
                                     &payload));
  std::uint32_t stored_crc;
  CDT_RETURN_NOT_OK(reader.ReadFixed32(&stored_crc));
  if (!reader.empty()) {
    return Status::ParseError("trailing bytes after snapshot record");
  }
  if (Crc32(payload) != stored_crc) {
    return Status::Corruption("snapshot file '" + path + "' CRC mismatch");
  }

  SnapshotFile result;
  ByteReader body(payload);
  CDT_RETURN_NOT_OK(body.ReadFixed32(&result.config_crc));
  CDT_RETURN_NOT_OK(DecodeEngineSnapshot(&body, &result.snapshot));
  if (!body.empty()) {
    return Status::ParseError("trailing bytes after snapshot state");
  }
  return result;
}

}  // namespace persist
}  // namespace cdt
