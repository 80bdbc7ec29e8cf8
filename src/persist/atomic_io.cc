#include "persist/atomic_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "persist/io_hooks.h"

namespace cdt {
namespace persist {

using util::Result;
using util::Status;

namespace {

AtomicWriteHook* FailureHook() {
  static AtomicWriteHook hook;
  return &hook;
}

Status IoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

/// Directory component of `path` ("." when there is none).
std::string DirName(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  const char* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    ssize_t written = ::write(fd, data, left);
    if (written < 0) {
      if (errno == EINTR) continue;
      return IoError("write", path);
    }
    data += written;
    left -= static_cast<std::size_t>(written);
  }
  return Status::OK();
}

}  // namespace

void SetAtomicWriteFailureHookForTest(AtomicWriteHook hook) {
  *FailureHook() = std::move(hook);
}

void RemoveTempFileFor(const std::string& path) {
  std::remove((path + kTempSuffix).c_str());
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string temp_path = path + kTempSuffix;
  int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("open", temp_path);

  Status status;
  bool injected = false;
  const IoDecision write_fault = IoHooks::Instance().Check(IoOp::kWrite);
  if (write_fault.error != 0) {
    // Simulated ENOSPC / EIO mid-write; a short write leaves a torn
    // prefix behind, like a real device running out of space.
    if (write_fault.short_write && !bytes.empty()) {
      (void)WriteAll(fd, bytes.substr(0, bytes.size() / 2), temp_path);
    }
    errno = write_fault.error;
    status = IoError("write", temp_path);
    injected = true;
  } else {
    status = WriteAll(fd, bytes, temp_path);
  }
  if (status.ok()) {
    const IoDecision fsync_fault = IoHooks::Instance().Check(IoOp::kFsync);
    if (fsync_fault.error != 0) {
      errno = fsync_fault.error;
      status = IoError("fsync", temp_path);
      injected = true;
    } else if (::fsync(fd) != 0) {
      status = IoError("fsync", temp_path);
    }
  }
  if (::close(fd) != 0 && status.ok()) {
    status = IoError("close", temp_path);
  }
  if (status.ok() && *FailureHook()) {
    status = (*FailureHook())(temp_path);
  }
  if (status.ok()) {
    const IoDecision rename_fault = IoHooks::Instance().Check(IoOp::kRename);
    if (rename_fault.error != 0) {
      errno = rename_fault.error;
      status = IoError("rename", path);
      injected = true;
    }
  }
  if (!status.ok()) {
    // Injected faults model a crash before cleanup runs: leave the temp
    // file behind so the orphan-sweep path has something real to sweep.
    if (!injected) ::unlink(temp_path.c_str());
    return status;
  }

  if (::rename(temp_path.c_str(), path.c_str()) != 0) {
    Status rename_status = IoError("rename", path);
    ::unlink(temp_path.c_str());
    return rename_status;
  }

  // Persist the rename itself: fsync the containing directory.
  int dir_fd = ::open(DirName(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return IoError("open directory of", path);
  Status dir_status;
  if (::fsync(dir_fd) != 0) dir_status = IoError("fsync directory of", path);
  ::close(dir_fd);
  return dir_status;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  const IoDecision read_fault = IoHooks::Instance().Check(IoOp::kRead);
  if (read_fault.error != 0) {
    errno = read_fault.error;
    return IoError("read", path);
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: '" + path + "'");
    }
    return IoError("open", path);
  }
  // One read into a buffer sized from the file, then on to end of file in
  // case it grew since the fstat.
  std::string bytes;
  struct stat info;
  if (::fstat(::fileno(file), &info) == 0 && info.st_size > 0) {
    bytes.resize(static_cast<std::size_t>(info.st_size));
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), file));
  }
  char buffer[1 << 16];
  std::size_t read;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, read);
  }
  if (std::ferror(file)) {
    std::fclose(file);
    return IoError("read", path);
  }
  std::fclose(file);
  ApplyBitRot(read_fault, &bytes);
  return bytes;
}

}  // namespace persist
}  // namespace cdt
