#include "persist/event_log.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
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
    const std::string& path) {
  auto bytes = ReadFileBytes(path);
  CDT_RETURN_NOT_OK(bytes.status());
  const std::string& buffer = bytes.value();

  if (buffer.size() < kMagicSize ||
      std::memcmp(buffer.data(), kLogMagic, kMagicSize) != 0) {
    return Status::ParseError("'" + path + "' is not a CDT event log");
  }
  ByteReader header(std::string_view(buffer).substr(kMagicSize));
  std::uint64_t version;
  CDT_RETURN_NOT_OK(header.ReadVarint64(&version));
  if (version != kFormatVersion) {
    return Status::VersionMismatch(
        "event log '" + path + "' has format version " +
        std::to_string(version) + "; this build appends only version " +
        std::to_string(kFormatVersion));
  }

  // Walk every record, remembering where the last complete valid one
  // ends. A truncated final record (the crash tear) is dropped by
  // truncating the file back to valid_end; corruption in a *complete*
  // record fails closed instead — appending after it would bless it.
  std::size_t valid_end = kMagicSize + header.position();
  std::size_t pos = valid_end;
  bool saw_config = false;
  bool saw_rebase = false;
  std::int64_t base_round = 0;
  std::int64_t rounds = 0;
  std::uint32_t config_crc = 0;
  std::uint32_t rolling_crc = 0;
  while (pos < buffer.size()) {
    ByteReader reader(std::string_view(buffer).substr(pos));
    std::uint8_t type;
    std::uint64_t length = 0;
    std::string_view payload;
    std::uint32_t stored_crc = 0;
    Status status = reader.ReadByte(&type);
    if (status.ok() && !KnownRecordType(type)) {
      return Status::Corruption("unknown event-log record type byte " +
                                std::to_string(int{type}));
    }
    if (status.ok()) status = reader.ReadVarint64(&length);
    if (status.ok() && length > kMaxPayloadSize) {
      return Status::Corruption("event-log record payload length " +
                                std::to_string(length) + " exceeds limit");
    }
    if (status.ok()) {
      status = reader.ReadBytes(static_cast<std::size_t>(length), &payload);
    }
    if (status.ok()) status = reader.ReadFixed32(&stored_crc);
    if (!status.ok()) break;  // torn tail — truncate back to valid_end
    std::uint32_t crc = Crc32(std::string_view(buffer).substr(pos, 1));
    crc = Crc32(payload, crc);
    if (crc != stored_crc) {
      return Status::Corruption(
          "event-log record CRC mismatch at offset " + std::to_string(pos) +
          "; refusing to append after corruption");
    }
    switch (static_cast<RecordType>(type)) {
      case RecordType::kConfig:
        if (saw_config) {
          return Status::ParseError("duplicate config record in '" + path +
                                    "'");
        }
        saw_config = true;
        config_crc = Crc32(payload);
        break;
      case RecordType::kRound:
        rolling_crc = Crc32(payload, rolling_crc);
        ++rounds;
        break;
      case RecordType::kSnapshotNote:
        break;
      case RecordType::kRebase: {
        if (!saw_config || saw_rebase || rounds != 0) {
          return Status::ParseError(
              "rebase record out of position in '" + path + "'");
        }
        CDT_RETURN_NOT_OK(DecodeRebasePayload(payload, &base_round));
        saw_rebase = true;
        rounds = base_round;
        break;
      }
      case RecordType::kFooter:
        return Status::FailedPrecondition(
            "event log '" + path + "' is sealed (footer present); "
            "cannot append to a finished log");
    }
    pos += reader.position();
    valid_end = pos;
  }
  if (!saw_config) {
    return Status::ParseError("event log '" + path +
                              "' has no complete config record");
  }

  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return Status::IoError("cannot reopen event log '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<EventLogWriter> writer(new EventLogWriter(path, file));
  if (::ftruncate(fileno(file), static_cast<off_t>(valid_end)) != 0 ||
      std::fseek(file, static_cast<long>(valid_end), SEEK_SET) != 0) {
    return WriteError(path);
  }
  writer->rounds_written_ = rounds;
  writer->base_round_ = base_round;
  writer->config_crc_ = config_crc;
  writer->rolling_crc_ = rolling_crc;
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
  CDT_RETURN_NOT_OK(AppendRecord(RecordType::kRound, payload));
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

// --- EventLogReader -----------------------------------------------------

Result<std::unique_ptr<EventLogReader>> EventLogReader::Open(
    const std::string& path, const Options& options) {
  auto bytes = ReadFileBytes(path);
  CDT_RETURN_NOT_OK(bytes.status());
  std::string buffer = std::move(bytes).value();

  if (buffer.size() < kMagicSize ||
      std::memcmp(buffer.data(), kLogMagic, kMagicSize) != 0) {
    return Status::ParseError("'" + path + "' is not a CDT event log");
  }
  ByteReader header(
      std::string_view(buffer).substr(kMagicSize));
  std::uint64_t version;
  CDT_RETURN_NOT_OK(header.ReadVarint64(&version));
  if (version != kFormatVersion) {
    // Fail closed: this build only understands its own format version.
    // Distinct from kCorruption so operators can tell a build mismatch
    // from bit rot.
    return Status::VersionMismatch(
        "event log '" + path + "' has format version " +
        std::to_string(version) + "; this build reads only version " +
        std::to_string(kFormatVersion));
  }
  std::size_t pos = kMagicSize + header.position();
  return std::unique_ptr<EventLogReader>(
      new EventLogReader(std::move(buffer), pos, version, options));
}

Status EventLogReader::Next(LogRecord* record) {
  if (done_) return Status::NotFound("event log exhausted");
  if (pos_ >= buffer_.size()) {
    done_ = true;
    return Status::NotFound("event log exhausted");
  }

  ByteReader reader(std::string_view(buffer_).substr(pos_));
  std::uint8_t type;
  std::uint64_t length = 0;
  std::string_view payload;
  std::uint32_t stored_crc = 0;
  Status status = reader.ReadByte(&type);
  bool known_type = status.ok() && KnownRecordType(type);
  if (status.ok() && !known_type) {
    return Status::Corruption("unknown event-log record type byte " +
                              std::to_string(int{type}));
  }
  if (status.ok()) status = reader.ReadVarint64(&length);
  if (status.ok() && length > kMaxPayloadSize) {
    return Status::Corruption("event-log record payload length " +
                              std::to_string(length) + " exceeds limit");
  }
  if (status.ok()) {
    status = reader.ReadBytes(static_cast<std::size_t>(length), &payload);
  }
  if (status.ok()) status = reader.ReadFixed32(&stored_crc);
  if (!status.ok()) {
    // Ran off the end of the buffer: a torn tail if tolerated, else a
    // hard parse error. (A complete-but-corrupt record is caught by CRC.)
    if (options_.allow_torn_tail) {
      torn_tail_ = true;
      done_ = true;
      return Status::NotFound("event log exhausted (torn tail)");
    }
    return Status::ParseError("event log truncated mid-record: " +
                              status.message());
  }

  std::uint32_t crc = Crc32(std::string_view(buffer_).substr(pos_, 1));
  crc = Crc32(payload, crc);
  if (crc != stored_crc) {
    return Status::Corruption("event-log record CRC mismatch at offset " +
                              std::to_string(pos_));
  }
  pos_ += reader.position();
  record->type = static_cast<RecordType>(type);
  record->payload = payload;
  return Status::OK();
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
                         const market::EngineSnapshot& snapshot) {
  std::string payload;
  PutFixed32(&payload, config_crc);
  EncodeEngineSnapshot(snapshot, &payload);

  std::string bytes(kSnapshotMagic, kMagicSize);
  PutVarint64(&bytes, kFormatVersion);
  PutVarint64(&bytes, payload.size());
  bytes.append(payload);
  PutFixed32(&bytes, Crc32(payload));
  return AtomicWriteFile(path, bytes);
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
