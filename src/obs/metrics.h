// Metrics primitives: Counter, Gauge and Histogram (fixed log-scaled
// buckets), owned by a MetricsRegistry keyed on (name, label set).
//
// Hot-path discipline: Add/Set/Record touch only lock-free atomics; the
// registry mutex is taken only at handle resolution (instrumentation
// caches handles in function-local statics) and at export snapshots.
// Handles returned by the registry stay valid for the registry's life —
// metrics are never deleted, Reset() zeroes values instead.

#ifndef CDT_OBS_METRICS_H_
#define CDT_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cdt {
namespace obs {

/// Label key/value pairs; the registry sorts them by key on registration
/// so {a=1,b=2} and {b=2,a=1} name the same metric.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotone counter. Negative or non-finite increments are ignored.
class Counter {
 public:
  void Increment() { Add(1.0); }
  void Add(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with inclusive upper bounds (Prometheus `le`
/// semantics) plus an implicit +Inf overflow bucket.
///
/// Edge cases: zero and negative samples land in the first bucket; samples
/// above the last finite bound land in the overflow bucket; NaN and ±Inf
/// samples are rejected outright (counted by rejected()) so they can never
/// poison sum() — the "inf-guard".
class Histogram {
 public:
  /// `bounds` must be finite, strictly ascending and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Record(double v);

  const std::vector<double>& bounds() const { return bounds_; }

  struct Snapshot {
    std::vector<double> bounds;        // finite upper bounds
    std::vector<std::uint64_t> counts; // size bounds+1; last is +Inf
    std::uint64_t count = 0;           // accepted samples
    double sum = 0.0;                  // sum of accepted samples
    std::uint64_t rejected = 0;        // NaN / ±Inf samples dropped
  };
  Snapshot snapshot() const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// `count` log-scaled (geometric) bucket bounds from `lo` to `hi`
/// inclusive; lo/hi must be positive and finite with lo < hi, count >= 2.
std::vector<double> LogBuckets(double lo, double hi, int count);

/// The default latency buckets shared by every *_seconds histogram:
/// 16 log-scaled bounds from 100 ns to 10 s.
const std::vector<double>& DefaultLatencyBuckets();

/// Registry of named metrics. GetX registers on first use and returns the
/// existing handle afterwards; help text is fixed by the first caller.
/// Name+labels collisions across different metric types are a programming
/// error and abort (CDT_CHECK) — metric names are a stable public API.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const LabelSet& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::vector<double>& bounds,
                          const LabelSet& labels = {});

  enum class Type { kCounter, kGauge, kHistogram };

  /// One exported metric instance.
  struct MetricSnapshot {
    std::string name;
    std::string help;
    LabelSet labels;  // sorted by key
    Type type = Type::kCounter;
    double value = 0.0;            // counter / gauge
    Histogram::Snapshot histogram; // histogram only
  };

  /// A consistent snapshot of every registered metric, sorted by
  /// (name, labels) for deterministic export.
  std::vector<MetricSnapshot> Collect() const;

  std::size_t size() const;

  /// Zeroes every metric value; handles stay valid.
  void Reset();

 private:
  struct Entry {
    std::string name;
    std::string help;
    LabelSet labels;
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const std::string& help,
                      const LabelSet& labels, Type type);

  mutable std::mutex mu_;
  /// Keyed by name + '\0'-joined sorted labels; pointers are stable.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace obs
}  // namespace cdt

#endif  // CDT_OBS_METRICS_H_
