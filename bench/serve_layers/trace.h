// In-memory span log of one traced bench_serve_layers run, written once
// as Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
//
// Spans are recorded by the benchmark around its calls into the library
// (push blocks, FlushInput, Finish, PromoteBundle, TakePredictions, and the
// isolated per-layer replays), never from inside the library. Each span
// carries a name, start, end, parent span and request id — the end-day for
// batch spans, the block index for row spans. A layer's self time is its
// spans' duration minus the part of that interval its child spans cover.
#ifndef HOTSPOT_BENCH_SERVE_LAYERS_TRACE_H_
#define HOTSPOT_BENCH_SERVE_LAYERS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace hotspot::bench {

/// Single-threaded: only the benchmark's main thread records into it.
/// Events other threads observed (prediction tees) are added afterwards
/// with their recorded timestamps.
class TraceLog {
 public:
  /// Opens a span now; returns its index (the parent handle of children).
  int Begin(const char* name, int parent, int64_t id);
  void End(int span);
  /// Adds a span whose interval was measured elsewhere.
  int Add(const char* name, int parent, int64_t id, uint64_t start_ns,
          uint64_t end_ns);
  /// Adds a zero-length event inside `parent`.
  void Instant(const char* name, int parent, int64_t id, uint64_t at_ns);

  /// Summed self time per span name, in seconds.
  std::map<std::string, double> SelfSecondsByName() const;

  /// Writes {"traceEvents": [...]}; false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    int parent = -1;
    int64_t id = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    bool instant = false;
  };
  std::vector<Event> events_;
};

/// RAII span; a no-op when `log` is null, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(TraceLog* log, const char* name, int parent, int64_t id)
      : log_(log), index_(log ? log->Begin(name, parent, id) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  TraceLog* log_;
  int index_;
};

}  // namespace hotspot::bench

#endif  // HOTSPOT_BENCH_SERVE_LAYERS_TRACE_H_
