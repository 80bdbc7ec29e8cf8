// Crash-safe file IO for the persistence layer.
//
// AtomicWriteFile writes via a temp file in the destination directory,
// fsyncs the data, renames into place, then fsyncs the directory — a
// reader never observes a half-written file, and a crash at any point
// leaves either the old content or the new content, never a torn mix.
// A test-only failure hook injects write/fsync errors so the durability
// suite can prove the failure paths clean up after themselves.

#ifndef CDT_PERSIST_ATOMIC_IO_H_
#define CDT_PERSIST_ATOMIC_IO_H_

#include <functional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace cdt {
namespace persist {

/// Suffix of the temp file an atomic write of `path` stages in
/// (`path` + kTempSuffix), before renaming it over `path`. AtomicWriteFile
/// and EventLogWriter::OpenRebased use it; scrubs sweep such files as
/// orphans when no writer is live.
inline constexpr char kTempSuffix[] = ".tmp";

/// Removes the temp file a failed atomic write of `path` may have left
/// behind (no-op when there is none). A plain unlink that bypasses
/// IoHooks, so it never consumes a scheduled fault.
void RemoveTempFileFor(const std::string& path);

/// Atomically replaces `path` with `bytes` (temp file + fsync + rename +
/// directory fsync). On error the temp file is removed and the original
/// `path` (if any) is untouched.
util::Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// Reads a whole file; NotFound when it does not exist.
util::Result<std::string> ReadFileBytes(const std::string& path);

/// Test hook: invoked after the temp file's bytes are written but before
/// the rename; a non-OK return aborts the atomic write (which must then
/// unlink the temp file and leave the destination untouched). Pass nullptr
/// to clear. Not thread-safe — tests install/clear it around single-threaded
/// sections only.
using AtomicWriteHook =
    std::function<util::Status(const std::string& temp_path)>;
void SetAtomicWriteFailureHookForTest(AtomicWriteHook hook);

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_ATOMIC_IO_H_
