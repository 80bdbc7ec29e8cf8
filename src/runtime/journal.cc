#include "runtime/journal.h"

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "persist/atomic_io.h"
#include "persist/codec.h"
#include "persist/io_hooks.h"

namespace cdt {
namespace runtime {

using persist::ByteReader;
using persist::Crc32;
using util::Result;
using util::Status;

namespace {

constexpr char kJournalMagic[9] = "CDTRTJNL";
constexpr std::size_t kMagicSize = 8;
constexpr std::uint64_t kJournalVersion = 1;

bool ValidEntryType(std::uint8_t type) {
  return type == static_cast<std::uint8_t>(EventType::kSellerLeave) ||
         type == static_cast<std::uint8_t>(EventType::kSellerReturn);
}

Status WriteError(const std::string& path) {
  return Status::IoError("journal write to '" + path +
                         "' failed: " + std::strerror(errno));
}

void EncodeEntry(const JournalEntry& entry, std::string* out) {
  persist::PutByte(out, static_cast<std::uint8_t>(entry.type));
  persist::PutZigzag64(out, entry.effect_round);
  persist::PutZigzag64(out, entry.seller);
  persist::PutFixed32(out, Crc32(*out));
}

/// Walks the journal body, filling `contents` and reporting where the
/// valid prefix ends (for the writer's torn-tail truncation).
Status ScanJournal(const std::string& path, const std::string& buffer,
                   JournalContents* contents, std::size_t* valid_end) {
  if (buffer.size() < kMagicSize ||
      std::memcmp(buffer.data(), kJournalMagic, kMagicSize) != 0) {
    return Status::ParseError("'" + path + "' is not a CDT runtime journal");
  }
  ByteReader header(std::string_view(buffer).substr(kMagicSize));
  std::uint64_t version;
  CDT_RETURN_NOT_OK(header.ReadVarint64(&version));
  if (version != kJournalVersion) {
    return Status::VersionMismatch(
        "journal '" + path + "' has format version " +
        std::to_string(version) + "; this build reads only version " +
        std::to_string(kJournalVersion));
  }
  std::size_t pos = kMagicSize + header.position();
  *valid_end = pos;
  while (pos < buffer.size()) {
    ByteReader reader(std::string_view(buffer).substr(pos));
    std::uint8_t type;
    JournalEntry entry;
    std::int64_t seller = 0;
    std::uint32_t stored_crc = 0;
    Status status = reader.ReadByte(&type);
    if (status.ok() && !ValidEntryType(type)) {
      return Status::Corruption("journal '" + path +
                                "' has invalid entry type byte " +
                                std::to_string(int{type}));
    }
    if (status.ok()) status = reader.ReadZigzag64(&entry.effect_round);
    if (status.ok()) status = reader.ReadZigzag64(&seller);
    std::size_t crc_covered = reader.position();
    if (status.ok()) status = reader.ReadFixed32(&stored_crc);
    if (!status.ok()) {
      // Ran off the end mid-record: the crash tear. Complete entries
      // before it stand; the writer truncates the fragment away.
      contents->torn_tail = true;
      return Status::OK();
    }
    std::uint32_t crc =
        Crc32(std::string_view(buffer).substr(pos, crc_covered));
    if (crc != stored_crc) {
      return Status::Corruption("journal '" + path +
                                "' entry CRC mismatch at offset " +
                                std::to_string(pos));
    }
    if (seller < INT32_MIN || seller > INT32_MAX) {
      return Status::ParseError("journal '" + path + "' entry at offset " +
                                std::to_string(pos) +
                                ": seller overflows int32");
    }
    entry.type = static_cast<EventType>(type);
    entry.seller = static_cast<int>(seller);
    contents->entries.push_back(entry);
    pos += reader.position();
    *valid_end = pos;
  }
  return Status::OK();
}

}  // namespace

Result<JournalContents> ReadJournal(const std::string& path) {
  auto bytes = persist::ReadFileBytes(path);
  if (bytes.status().code() == util::StatusCode::kNotFound) {
    return JournalContents{};  // never written: no flips happened
  }
  CDT_RETURN_NOT_OK(bytes.status());
  JournalContents contents;
  std::size_t valid_end = 0;
  CDT_RETURN_NOT_OK(ScanJournal(path, bytes.value(), &contents, &valid_end));
  return contents;
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& path) {
  auto bytes = persist::ReadFileBytes(path);
  if (bytes.status().code() == util::StatusCode::kNotFound) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      return Status::IoError("cannot create journal '" + path +
                             "': " + std::strerror(errno));
    }
    std::string header(kJournalMagic, kMagicSize);
    persist::PutVarint64(&header, kJournalVersion);
    if (std::fwrite(header.data(), 1, header.size(), file) !=
            header.size() ||
        std::fflush(file) != 0) {
      std::fclose(file);
      return WriteError(path);
    }
    return std::unique_ptr<JournalWriter>(new JournalWriter(path, file));
  }
  CDT_RETURN_NOT_OK(bytes.status());

  JournalContents contents;
  std::size_t valid_end = 0;
  CDT_RETURN_NOT_OK(ScanJournal(path, bytes.value(), &contents, &valid_end));
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return Status::IoError("cannot reopen journal '" + path +
                           "': " + std::strerror(errno));
  }
  std::unique_ptr<JournalWriter> writer(new JournalWriter(path, file));
  if (::ftruncate(fileno(file), static_cast<off_t>(valid_end)) != 0 ||
      std::fseek(file, static_cast<long>(valid_end), SEEK_SET) != 0) {
    return WriteError(path);
  }
  return writer;
}

Status JournalWriter::Append(const JournalEntry& entry) {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal already closed");
  }
  if (entry.type != EventType::kSellerLeave &&
      entry.type != EventType::kSellerReturn) {
    return Status::InvalidArgument("journal entries are leave/return only");
  }
  std::string frame;
  EncodeEntry(entry, &frame);
  const persist::IoDecision write_fault =
      persist::IoHooks::Instance().Check(persist::IoOp::kWrite);
  if (write_fault.error != 0) {
    if (write_fault.short_write && frame.size() > 1) {
      (void)std::fwrite(frame.data(), 1, frame.size() / 2, file_);
      (void)std::fflush(file_);
    }
    errno = write_fault.error;
    status_ = WriteError(path_);
    return status_;
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0) {
    status_ = WriteError(path_);
    return status_;
  }
  return Status::OK();
}

Status JournalWriter::Close() {
  if (!status_.ok()) return status_;
  if (file_ == nullptr) return Status::OK();
  Status status;
  const persist::IoDecision fsync_fault =
      persist::IoHooks::Instance().Check(persist::IoOp::kFsync);
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
  status_ = status;
  return status_;
}

}  // namespace runtime
}  // namespace cdt
