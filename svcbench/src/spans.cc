#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace svcbench {

int SpanRecorder::Begin(const std::string& name, std::uint64_t event_id,
                        int track) {
  int stored = -1;
  if (spans_.size() < max_stored_) {
    stored = static_cast<int>(spans_.size());
    Span span;
    span.name = name;
    span.event_id = event_id;
    span.track = track;
    span.parent = open_.empty() ? -1 : open_.back().stored;
    spans_.push_back(std::move(span));
  } else {
    ++dropped_;
  }
  const std::int64_t start = NowNs();
  if (stored >= 0) spans_[static_cast<std::size_t>(stored)].start_ns = start;
  open_.push_back({name, start, event_id, track, 0.0, stored});
  return static_cast<int>(open_.size()) - 1;
}

void SpanRecorder::End(int handle) {
  const std::int64_t end = NowNs();
  if (handle != static_cast<int>(open_.size()) - 1) {
    std::fprintf(stderr, "svcbench: spans closed out of order\n");
    std::abort();
  }
  const Open open = std::move(open_.back());
  open_.pop_back();
  const double duration = static_cast<double>(end - open.start_ns);
  if (open.stored >= 0) {
    spans_[static_cast<std::size_t>(open.stored)].end_ns = end;
  }
  if (!open_.empty()) open_.back().child_ns += duration;
  Account(open.name, duration, duration - open.child_ns);
}

void SpanRecorder::AddRoot(const std::string& name, std::int64_t start_ns,
                           std::int64_t end_ns, std::uint64_t event_id,
                           int track) {
  if (spans_.size() < max_stored_) {
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.event_id = event_id;
    span.track = track;
    spans_.push_back(std::move(span));
  } else {
    ++dropped_;
  }
  const double duration = static_cast<double>(end_ns - start_ns);
  Account(name, duration, duration);
}

void SpanRecorder::Account(const std::string& name, double duration_ns,
                           double self_ns) {
  SpanStats& stats = stats_[name];
  stats.duration_ns.push_back(duration_ns);
  stats.total_ns += duration_ns;
  stats.total_self_ns += self_ns;
}

const SpanStats* SpanRecorder::Find(const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : &it->second;
}

namespace {

const char* TrackName(int track) {
  switch (track) {
    case kGeneratorTrack: return "generator (service run)";
    case kReplayTrack: return "runtime replay";
    case kEngineTrack: return "engine-level replay";
    case kRecoverTrack: return "crash-point recovery";
    default: return nullptr;
  }
}

std::string Category(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t epoch = 0;
  bool have_epoch = false;
  for (const Span& span : spans_) {
    if (!have_epoch || span.start_ns < epoch) epoch = span.start_ns;
    have_epoch = true;
  }
  auto us = [epoch](std::int64_t ns) {
    return static_cast<double>(ns - epoch) / 1000.0;
  };
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&]() {
    if (!first) std::fprintf(out, ",\n");
    first = false;
  };
  std::map<int, bool> tracks;
  for (const Span& span : spans_) tracks[span.track] = true;
  for (const auto& entry : tracks) {
    const char* name = TrackName(entry.first);
    std::string label = name != nullptr
                            ? std::string(name)
                            : "shard " + std::to_string(entry.first -
                                                        kShardTrackBase);
    sep();
    std::fprintf(out,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 entry.first, label.c_str());
  }
  // Root spans of one event, in time order, for the flow arrows.
  std::map<std::uint64_t, std::vector<const Span*>> roots;
  for (const Span& span : spans_) {
    sep();
    std::fprintf(out,
                 "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"event_id\":%llu,\"parent\":%d}}",
                 span.name.c_str(), Category(span.name).c_str(), span.track,
                 us(span.start_ns), us(span.end_ns) - us(span.start_ns),
                 static_cast<unsigned long long>(span.event_id), span.parent);
    if (span.parent < 0 && span.event_id != 0) {
      roots[span.event_id].push_back(&span);
    }
  }
  for (auto& entry : roots) {
    auto& chain = entry.second;
    if (chain.size() < 2) continue;
    std::sort(chain.begin(), chain.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const char* phase = i == 0 ? "s" : (i + 1 == chain.size() ? "f" : "t");
      sep();
      std::fprintf(out,
                   "{\"ph\":\"%s\",\"name\":\"event\",\"cat\":\"event\","
                   "\"id\":%llu,\"pid\":1,\"tid\":%d,\"ts\":%.3f%s}",
                   phase, static_cast<unsigned long long>(entry.first),
                   chain[i]->track, us(chain[i]->start_ns),
                   i == 0 ? "" : ",\"bp\":\"e\"");
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace svcbench
