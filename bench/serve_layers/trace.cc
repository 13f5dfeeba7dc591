#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace hotspot::bench {

int TraceLog::Begin(const char* name, int parent, int64_t id) {
  const uint64_t now = NowNs();
  return Add(name, parent, id, now, now);
}

void TraceLog::End(int span) {
  events_[static_cast<size_t>(span)].end_ns = NowNs();
}

int TraceLog::Add(const char* name, int parent, int64_t id, uint64_t start_ns,
                  uint64_t end_ns) {
  Event event;
  event.name = name;
  event.parent = parent;
  event.id = id;
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  events_.push_back(std::move(event));
  return static_cast<int>(events_.size()) - 1;
}

void TraceLog::Instant(const char* name, int parent, int64_t id,
                       uint64_t at_ns) {
  const int index = Add(name, parent, id, at_ns, at_ns);
  events_[static_cast<size_t>(index)].instant = true;
}

std::map<std::string, double> TraceLog::SelfSecondsByName() const {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      events_.size());
  for (const Event& event : events_) {
    if (event.parent >= 0 && !event.instant) {
      children[static_cast<size_t>(event.parent)].emplace_back(event.start_ns,
                                                               event.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t s = 0; s < events_.size(); ++s) {
    const Event& span = events_[s];
    if (span.instant) continue;
    // Union of the children's intervals clipped to the span: concurrent
    // children (batch spans overlapping push blocks) are covered once.
    std::vector<std::pair<uint64_t, uint64_t>>& kids = children[s];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const uint64_t lo = std::max(start, cursor);
      const uint64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    const uint64_t duration = span.end_ns - span.start_ns;
    self[span.name] += 1e-9 * static_cast<double>(duration - covered);
  }
  return self;
}

bool TraceLog::WriteChromeJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const Event& event : events_) origin = std::min(origin, event.start_ns);
  std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t s = 0; s < events_.size(); ++s) {
    const Event& event = events_[s];
    const double ts_us = 1e-3 * static_cast<double>(event.start_ns - origin);
    // Instants are tee observations from the serving threads; spans are
    // the benchmark's main thread.
    std::fprintf(file,
                 "%s\n{\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %.3f, ",
                 s == 0 ? "" : ",", event.name.c_str(),
                 event.instant ? "i" : "X", ts_us);
    if (event.instant) {
      std::fprintf(file, "\"s\": \"t\", \"pid\": 1, \"tid\": 2, ");
    } else {
      std::fprintf(file, "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, ",
                   1e-3 * static_cast<double>(event.end_ns - event.start_ns));
    }
    std::fprintf(file,
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"id\": %lld}}",
                 s, event.parent, static_cast<long long>(event.id));
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace hotspot::bench
