// Bench-side spans: the traced run wraps each call into a module's public
// API in a span (name, start, end, parent, event id). Spans live in memory
// and are written out as Chrome trace JSON when the run ends; per-name
// duration and self-time aggregates are kept exactly even when the stored
// span list hits its cap.

#ifndef SVCBENCH_SPANS_H_
#define SVCBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace svcbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Chrome-trace track ids (one row per logical thread in Perfetto).
enum Track : int {
  kGeneratorTrack = 1,
  kShardTrackBase = 10,  // + shard index: bench-observed queue+service time
  kReplayTrack = 30,     // single-thread runtime replay
  kEngineTrack = 31,     // single-thread engine-level replay
  kRecoverTrack = 32,    // recovery of crash-point WAL copies
};

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into spans(), -1 for a root span
  std::uint64_t event_id = 0;  // 0 = not tied to one event
  int track = 0;
};

/// Per-name aggregate. Self time is the span's duration minus the time its
/// child spans cover (children on one track never overlap).
struct SpanStats {
  std::vector<double> duration_ns;
  double total_ns = 0.0;
  double total_self_ns = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t max_stored = 400000)
      : max_stored_(max_stored) {}

  /// Opens a span under the innermost open span. Returns a handle for End.
  int Begin(const std::string& name, std::uint64_t event_id, int track);
  void End(int handle);

  /// Records a finished root span after the fact (service-run events whose
  /// timestamps the generator took itself).
  void AddRoot(const std::string& name, std::int64_t start_ns,
               std::int64_t end_ns, std::uint64_t event_id, int track);

  const std::map<std::string, SpanStats>& stats() const { return stats_; }
  const SpanStats* Find(const std::string& name) const;
  std::size_t dropped() const { return dropped_; }

  /// Writes every stored span as Chrome trace-event JSON, with flow arrows
  /// joining the root spans that share an event id across tracks.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    std::string name;
    std::int64_t start_ns;
    std::uint64_t event_id;
    int track;
    double child_ns;
    int stored;  // index into spans_, or -1 when not stored
  };
  void Account(const std::string& name, double duration_ns, double self_ns);

  std::size_t max_stored_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::map<std::string, SpanStats> stats_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::uint64_t event_id, int track)
      : recorder_(recorder),
        handle_(recorder != nullptr ? recorder->Begin(name, event_id, track)
                                    : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int handle_;
};

}  // namespace svcbench

#endif  // SVCBENCH_SPANS_H_
