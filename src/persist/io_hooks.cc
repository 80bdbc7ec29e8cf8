#include "persist/io_hooks.h"

namespace cdt {
namespace persist {

IoHooks& IoHooks::Instance() {
  static IoHooks* hooks = new IoHooks();
  return *hooks;
}

void IoHooks::Arm(const IoFault& fault) {
  std::lock_guard<std::mutex> lock(mutex_);
  faults_.push_back(fault);
  enabled_.store(true, std::memory_order_relaxed);
}

void IoHooks::EnableCounting() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(true, std::memory_order_relaxed);
}

void IoHooks::ClearFaults() {
  std::lock_guard<std::mutex> lock(mutex_);
  faults_.clear();
}

void IoHooks::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  faults_.clear();
  for (int i = 0; i < kNumIoOps; ++i) counters_[i] = 0;
  enabled_.store(false, std::memory_order_relaxed);
}

IoDecision IoHooks::Check(IoOp op) {
  if (!enabled_.load(std::memory_order_relaxed)) return IoDecision{};
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t index = counters_[static_cast<int>(op)]++;
  for (const IoFault& fault : faults_) {
    if (fault.op != op) continue;
    if (index < fault.from_index) continue;
    if (fault.count != 0 && index - fault.from_index >= fault.count) continue;
    IoDecision decision;
    if (op == IoOp::kRead && fault.error == 0) {
      decision.bitrot = true;
      decision.bitrot_bit = fault.bitrot_bit;
    } else {
      decision.error = fault.error;
      decision.short_write = fault.short_write && op == IoOp::kWrite;
    }
    return decision;
  }
  return IoDecision{};
}

std::uint64_t IoHooks::ops_seen(IoOp op) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[static_cast<int>(op)];
}

void ApplyBitRot(const IoDecision& decision, std::string* bytes) {
  if (!decision.bitrot || bytes == nullptr || bytes->empty()) return;
  const std::uint64_t bit = decision.bitrot_bit % (bytes->size() * 8);
  (*bytes)[bit / 8] ^= static_cast<char>(1u << (bit % 8));
}

}  // namespace persist
}  // namespace cdt
