// Deterministic I/O fault injection for the persistence layer.
//
// IoHooks generalizes the test-only AtomicWriteFile failure hook into a
// seedless, index-addressed fault shim: every instrumented I/O site asks
// the singleton whether the Nth write / fsync / rename / read should fail,
// and faults are armed over exact operation-index windows so chaos
// scenarios replay bit-for-bit across runs and machines. When nothing is
// armed the fast path is a single relaxed atomic load and no counters
// advance, so production builds pay nothing.
//
// Supported fault shapes:
//   - kWrite: fail with a simulated errno (ENOSPC, EIO, ...); optionally
//     emit a torn half-record first (`short_write`) so tail-repair paths
//     see realistic partial frames.
//   - kFsync / kRename: fail with a simulated errno. Injected
//     rename/fsync failures in AtomicWriteFile deliberately leave the
//     temp file behind (simulating a crash before cleanup) so the
//     orphan-sweep path is exercised.
//   - kRead: either fail with a simulated errno or flip one deterministic
//     bit in the returned bytes (read-side bit rot).

#ifndef CDT_PERSIST_IO_HOOKS_H_
#define CDT_PERSIST_IO_HOOKS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace cdt {
namespace persist {

/// Instrumented operation classes. Each class has its own index counter.
enum class IoOp : int { kWrite = 0, kFsync = 1, kRename = 2, kRead = 3 };
inline constexpr int kNumIoOps = 4;

/// One armed fault: applies to ops of class `op` whose index falls in
/// `[from_index, from_index + count)`; `count == 0` means "forever from
/// from_index" (a permanent fault).
struct IoFault {
  IoOp op = IoOp::kWrite;
  std::uint64_t from_index = 0;
  std::uint64_t count = 1;
  /// errno the instrumented site simulates (ignored for bit rot).
  int error = 28;  // ENOSPC
  /// kWrite only: write roughly half the frame for real before failing.
  bool short_write = false;
  /// kRead only: when `error == 0`, flip this bit index (mod file size)
  /// in the returned bytes instead of failing the read.
  std::uint64_t bitrot_bit = 0;
};

/// What an instrumented site should do for the current operation.
struct IoDecision {
  int error = 0;  // 0 = proceed normally
  bool short_write = false;
  bool bitrot = false;
  std::uint64_t bitrot_bit = 0;
};

/// Process-wide fault-injection registry. Thread-safe; deterministic as
/// long as the instrumented operation sequence is deterministic (single
/// writer thread, scripted traffic).
class IoHooks {
 public:
  static IoHooks& Instance();

  /// Arms a fault window. Enables counting as a side effect.
  void Arm(const IoFault& fault);

  /// Enables op counting without arming any fault (calibration runs).
  void EnableCounting();

  /// Clears armed faults but keeps counters advancing.
  void ClearFaults();

  /// Clears faults AND counters and disables counting entirely.
  void Reset();

  /// Consults the registry for the next operation of class `op`,
  /// advancing that class's counter when enabled. Default decision is
  /// "proceed".
  IoDecision Check(IoOp op);

  /// Operations of class `op` observed since the last Reset.
  std::uint64_t ops_seen(IoOp op) const;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  IoHooks() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::uint64_t counters_[kNumIoOps] = {0, 0, 0, 0};
  std::vector<IoFault> faults_;
};

/// Applies a pending kRead bit-rot decision to freshly read bytes.
void ApplyBitRot(const IoDecision& decision, std::string* bytes);

}  // namespace persist
}  // namespace cdt

#endif  // CDT_PERSIST_IO_HOOKS_H_
