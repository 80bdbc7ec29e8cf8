#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace cdt {
namespace obs {

namespace {

/// Lock-free accumulate for atomic<double> (fetch_add on floating atomics
/// compiles to a CAS loop anyway; spell it out for pre-C++20 libstdc++s).
void AtomicAdd(std::atomic<double>* target, double v) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + v,
                                        std::memory_order_relaxed)) {
  }
}

/// name + '\0' + k1 + '\0' + v1 + ... over sorted labels.
std::string EntryKey(const std::string& name, const LabelSet& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key.push_back('\0');
    key.append(k);
    key.push_back('\0');
    key.append(v);
  }
  return key;
}

LabelSet SortedLabels(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

void Counter::Add(double v) {
  if (!(v >= 0.0) || !std::isfinite(v)) return;  // NaN-safe: !(NaN >= 0)
  AtomicAdd(&value_, v);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  CDT_CHECK(!bounds_.empty()) << "histogram needs >= 1 bucket bound";
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    CDT_CHECK(std::isfinite(bounds_[i]))
        << "histogram bounds must be finite (bound " << i << ")";
    if (i > 0) {
      CDT_CHECK(bounds_[i - 1] < bounds_[i])
          << "histogram bounds must be strictly ascending";
    }
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Record(double v) {
  if (!std::isfinite(v)) {  // inf-guard: NaN and ±Inf never reach sum_
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // First bound >= v: inclusive upper bounds (Prometheus `le`). Values at
  // or below bounds_[0] — including 0 and negatives — land in bucket 0;
  // values above the last bound land in the +Inf overflow slot.
  std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.rejected = rejected_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
  count_.store(0);
  sum_.store(0.0);
  rejected_.store(0);
}

std::vector<double> LogBuckets(double lo, double hi, int count) {
  CDT_CHECK(lo > 0.0 && std::isfinite(lo)) << "LogBuckets lo must be > 0";
  CDT_CHECK(hi > lo && std::isfinite(hi)) << "LogBuckets hi must be > lo";
  CDT_CHECK(count >= 2) << "LogBuckets needs >= 2 buckets";
  std::vector<double> bounds(static_cast<std::size_t>(count));
  const double ratio = std::log(hi / lo) / static_cast<double>(count - 1);
  for (int i = 0; i < count; ++i) {
    bounds[static_cast<std::size_t>(i)] =
        lo * std::exp(ratio * static_cast<double>(i));
  }
  bounds.back() = hi;  // exact endpoint, no exp/log round-off
  return bounds;
}

const std::vector<double>& DefaultLatencyBuckets() {
  static const std::vector<double>* const kBuckets =
      new std::vector<double>(LogBuckets(1e-7, 10.0, 16));
  return *kBuckets;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    const std::string& name, const std::string& help, const LabelSet& labels,
    Type type) {
  LabelSet sorted = SortedLabels(labels);
  std::string key = EntryKey(name, sorted);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    CDT_CHECK(it->second->type == type)
        << "metric '" << name << "' re-registered with a different type";
    return it->second.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->labels = std::move(sorted);
  entry->type = type;
  Entry* raw = entry.get();
  entries_.emplace(std::move(key), std::move(entry));
  return raw;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const LabelSet& labels) {
  Entry* entry = FindOrCreate(name, help, labels, Type::kCounter);
  if (entry->counter == nullptr) entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const LabelSet& labels) {
  Entry* entry = FindOrCreate(name, help, labels, Type::kGauge);
  if (entry->gauge == nullptr) entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         const std::vector<double>& bounds,
                                         const LabelSet& labels) {
  Entry* entry = FindOrCreate(name, help, labels, Type::kHistogram);
  if (entry->histogram == nullptr) {
    entry->histogram = std::make_unique<Histogram>(bounds);
  }
  return entry->histogram.get();
}

std::vector<MetricsRegistry::MetricSnapshot> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  // entries_ is keyed by name + sorted labels, so map order is already the
  // deterministic (name, labels) export order.
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = entry->name;
    snap.help = entry->help;
    snap.labels = entry->labels;
    snap.type = entry->type;
    switch (entry->type) {
      case Type::kCounter:
        snap.value = entry->counter->value();
        break;
      case Type::kGauge:
        snap.value = entry->gauge->value();
        break;
      case Type::kHistogram:
        snap.histogram = entry->histogram->snapshot();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    switch (entry->type) {
      case Type::kCounter:
        entry->counter->Reset();
        break;
      case Type::kGauge:
        entry->gauge->Reset();
        break;
      case Type::kHistogram:
        entry->histogram->Reset();
        break;
    }
  }
}

}  // namespace obs
}  // namespace cdt
