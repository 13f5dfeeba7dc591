#ifndef HOTSPOT_OBS_SNAPSHOT_H_
#define HOTSPOT_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/pipeline_context.h"

namespace hotspot::obs {

/// Point-in-time copy of everything a PipelineContext observed, merged
/// across the per-thread shards: the one sampled form of a context. Plain
/// data, detached from the live registry. A TelemetryExporter frame is a
/// Snapshot whose header and deltas the exporter filled in; a one-shot
/// TakeSnapshot is exactly an exporter's first frame (index 0, deltas equal
/// to the totals) with no interval behind it.
struct Snapshot {
  struct CounterSample {
    std::string name;
    uint64_t value = 0;
    uint64_t delta = 0;  ///< since the previous frame (first: the value)
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    std::vector<double> bounds;    ///< upper bucket bounds
    std::vector<uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
    uint64_t count = 0;
    uint64_t delta = 0;  ///< count since the previous frame
    double sum = 0.0;
    bool has_exemplar = false;  ///< Histogram::LastExemplar
    int64_t exemplar = 0;
    double exemplar_value = 0.0;
  };
  struct SpanSample {
    std::string path;
    int depth = 0;
    uint64_t count = 0;
    double total_seconds = 0.0;
  };

  uint64_t index = 0;             ///< 0-based frame number of its exporter
  uint64_t t_ms = 0;              ///< steady-clock ms since exporter start
  double interval_seconds = 0.0;  ///< wall time since the previous frame
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanSample> spans;
  uint64_t flight_recorded = 0;  ///< FlightRecorder::recorded()
  uint64_t flight_dropped = 0;   ///< FlightRecorder::dropped()

  /// Sum of wall time over the depth-0 spans: the share of a run that the
  /// trace layer accounts for (the coverage check of bench_tab03).
  double TopLevelSpanSeconds() const;
};

/// Merges all shards of `context` into a Snapshot (deterministic order:
/// metrics by name, spans pre-order with sorted children).
Snapshot TakeSnapshot(const PipelineContext& context);

/// Quantile estimate over a fixed-bucket histogram sample, linearly
/// interpolated inside the covering bucket (the Prometheus
/// histogram_quantile convention; the overflow bucket clamps to the last
/// finite bound). `q` in [0, 1]; returns 0 for an empty histogram. Used
/// by the bench tooling to report p50/p99 stage latencies out of the
/// pipeline/<stage>_latency_seconds histograms.
double HistogramQuantile(const Snapshot::HistogramSample& histogram,
                         double q);

/// Appends `text` as a JSON string: quote, backslash, newline and tab
/// escaped by name, any other control character as \u00XX.
void AppendJsonString(const std::string& text, std::string* out);

/// Appends `value` as a JSON number in %.17g (an exact round trip), or as
/// null when it is NaN or infinite, which JSON has no literal for.
void AppendJsonNumber(double value, std::string* out);

/// The JSON form of a Snapshot: one line (no interior newline) in schema
/// "hotspot.telemetry.v1", what the exporter's NDJSON sinks append and
/// WriteSnapshotJson writes:
///
///   line       := {"schema","frame","t_ms","interval_s",
///                  "counters":[counter…],"gauges":[gauge…],
///                  "histograms":[histogram…],"spans":[span…],
///                  "flight":flight}
///   counter    := {"name","total","delta","rate"}   (rate = delta/interval)
///   gauge      := {"name","value"}
///   histogram  := {"name","count","delta","sum","p50","p99"
///                  [,"exemplar","exemplar_value"]}
///   span       := {"path","depth","count","seconds"}
///   flight     := {"recorded","dropped"}
///
/// Doubles print as %.17g (exact round trip); a non-finite one, and the
/// rate of a snapshot with no interval, prints as null. Quantiles are
/// HistogramQuantile over the cumulative distribution.
std::string FrameToJsonLine(const Snapshot& snapshot);

/// Writes FrameToJsonLine(snapshot) and a newline to `path`. Returns false
/// on I/O error.
bool WriteSnapshotJson(const Snapshot& snapshot, const std::string& path);

}  // namespace hotspot::obs

#endif  // HOTSPOT_OBS_SNAPSHOT_H_
