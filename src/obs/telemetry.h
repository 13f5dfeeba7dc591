#ifndef HOTSPOT_OBS_TELEMETRY_H_
#define HOTSPOT_OBS_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/pipeline_context.h"
#include "obs/snapshot.h"

namespace hotspot::obs {

/// True when `name` matches the project's metric-name charset
/// `[a-zA-Z_][a-zA-Z0-9_/]*` — ASCII word characters with `/` as the
/// namespace separator, which is exactly the set ToPrometheusName can
/// mangle reversibly. Enforced by the obs_test name lint over every
/// registered counter/gauge/histogram.
bool IsValidMetricName(std::string_view name);

/// Reversible Prometheus name mangling: `/` → `:` (colons are legal in
/// Prometheus metric names and cannot appear in ours, so the mapping is a
/// bijection — unlike the usual `_` flattening, which would collide
/// "fleet/rows_routed" with a hypothetical "fleet_rows/routed").
std::string ToPrometheusName(std::string_view name);
/// Exact inverse of ToPrometheusName.
std::string FromPrometheusName(std::string_view name);

/// Prometheus text exposition of a Snapshot: one `# TYPE`-annotated
/// family per metric, names through ToPrometheusName; a histogram is a
/// summary (its p50/p99 quantile rows plus `_sum` and `_count`). Each frame
/// starts with a `# hotspot frame <n> t_ms <t>` marker line.
std::string FrameToPrometheusText(const Snapshot& frame);

/// Everything a TelemetryExporter is configured by.
struct TelemetryOptions {
  /// Sampling period of the background thread. The 1 s default is the
  /// production cadence the <2 % pipeline-overhead budget is measured at;
  /// tests shrink it to milliseconds.
  std::chrono::milliseconds period{1000};
  /// Append one NDJSON frame line per sample to this file (empty = off).
  /// A path that cannot be opened for appending is refused (CHECK) when
  /// the exporter is built, as is such a prometheus_path.
  std::string json_path;
  /// Append one Prometheus text frame per sample to this file (empty =
  /// off). Each frame is preceded by a `# hotspot frame <n>` marker line.
  std::string prometheus_path;
  /// Write the NDJSON frame line to stderr as well — the quick-start sink.
  bool to_stderr = false;
  /// Structured delivery: called once per frame from the exporter thread.
  std::function<void(const Snapshot&)> on_frame;
  /// Emit one final frame from Stop()/the destructor, so short-lived runs
  /// always export their totals.
  bool final_frame_on_stop = true;
};

/// Background telemetry exporter: a thread that periodically samples a
/// PipelineContext into frames and appends them to the configured sinks.
/// A frame is TakeSnapshot of the context plus what only a series of
/// samples has: the frame header (index, t_ms, interval) and per-counter
/// and per-histogram deltas against the previous frame (the first frame's
/// deltas equal the totals). Sampling is strictly read-only and lock-light
/// (the registry's mutex, each trace tree's mutex in turn, and
/// merge-on-read shard sums), so a live serving stack pays for telemetry
/// only in memory bandwidth: predictions stay bitwise identical with an
/// exporter running (tests/telemetry_test.cc pins this across the thread
/// matrix).
///
/// The context must outlive the exporter. Stop() (or the destructor)
/// joins the thread; SampleNow() forces one synchronous frame at any
/// time, which is how tests get deterministic frame boundaries.
class TelemetryExporter {
 public:
  TelemetryExporter(const PipelineContext* context,
                    const TelemetryOptions& options);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Samples one frame on the calling thread (serialized against the
  /// background thread) and returns it after sink delivery.
  Snapshot SampleNow();

  /// Stops the background thread, emitting the final frame when
  /// configured. Idempotent.
  void Stop();

  /// Frames emitted so far (background + SampleNow).
  uint64_t frames() const {
    return frames_.load(std::memory_order_acquire);
  }

 private:
  void Loop();
  Snapshot Sample();
  void Deliver(const Snapshot& frame);

  const PipelineContext* context_;
  TelemetryOptions options_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_sample_;

  std::mutex sample_mutex_;  ///< serializes Sample() + sink writes
  std::map<std::string, uint64_t> last_counters_;
  std::map<std::string, uint64_t> last_histogram_counts_;
  uint64_t frame_index_ = 0;
  std::atomic<uint64_t> frames_{0};
  std::FILE* json_file_ = nullptr;
  std::FILE* prometheus_file_ = nullptr;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace hotspot::obs

#endif  // HOTSPOT_OBS_TELEMETRY_H_
