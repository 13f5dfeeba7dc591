#ifndef HOTSPOT_STREAM_KPI_STREAM_H_
#define HOTSPOT_STREAM_KPI_STREAM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "tensor/temporal.h"

namespace hotspot::stream {

/// Callback receiving finalized rows in strict per-sector hour order
/// (hour 0, 1, 2, ... with no holes). `values` points at `num_kpis`
/// floats valid only for the duration of the call — for a row that
/// arrived in order, the very buffer the caller handed to Push; NaN marks
/// a missing KPI reading. Synthesized gap rows (see IngestorConfig) arrive
/// here as all-NaN vectors, indistinguishable from an operator row whose
/// every KPI was missing — exactly how the batch pipeline treats such
/// hours.
using KpiRowSink =
    std::function<void(int sector, int hour, const float* values,
                       int num_kpis)>;

/// Policy knobs of the ingestor. Memory is bounded by
/// num_sectors x ring_hours x num_kpis floats.
struct IngestorConfig {
  int num_sectors = 0;
  int num_kpis = 0;
  /// Late-arrival window: a row for hour h is still accepted while
  /// h + watermark_hours >= max hour seen for that sector. Once the
  /// sector's stream has advanced further, the hour is finalized — as the
  /// buffered row if one arrived, as an all-NaN gap row otherwise — and
  /// any row for it that shows up afterwards is dropped and counted.
  int watermark_hours = kHoursPerDay;
  /// Per-sector reorder ring capacity in hours; must be strictly greater
  /// than watermark_hours (the watermark advance keeps occupancy at or
  /// below watermark_hours + 1 slots).
  int ring_hours = 2 * kHoursPerDay;
};

/// What happened to one pushed row.
enum class PushResult {
  kAccepted,   ///< emitted in order, at once or after the hours before it
  kDuplicate,  ///< a row for this (sector, hour) is already buffered
  kLate,       ///< hour already finalized (flushed or gap-filled) — dropped
  kRejected,   ///< malformed: sector/hour out of range or wrong KPI count
};

/// Streaming front door of the serving pipeline: accepts hourly KPI rows
/// (sector id, hour, l-KPI vector, NaN-maskable) in whatever order the
/// transport delivers them, and emits them to the sink in strict per-
/// sector hour order with an explicit out-of-order / late-arrival policy:
///
///   * a row for the sector's next hour, with nothing buffered, is final
///     as it arrives and goes to the sink from the caller's buffer — in an
///     in-order feed that is every row;
///   * a row that arrives ahead of a hole, within the watermark window, is
///     buffered in a bounded per-sector ring and released as soon as the
///     contiguous prefix fills in;
///   * duplicate (sector, hour) rows are first-wins dropped;
///   * rows older than the watermark are dropped;
///   * hours the watermark passes without a row are synthesized as
///     all-NaN gap rows so one straggler sector cannot stall the stream.
///
/// Everything is surfaced via `stream/rows_*` counters in the installed
/// obs::PipelineContext (null context = counting off, behavior
/// unchanged). Single-writer: Push/Flush must come from one thread at a
/// time; the downstream feature engine shares that contract.
class KpiStreamIngestor {
 public:
  KpiStreamIngestor(const IngestorConfig& config, KpiRowSink sink);

  KpiStreamIngestor(const KpiStreamIngestor&) = delete;
  KpiStreamIngestor& operator=(const KpiStreamIngestor&) = delete;

  /// Offers one row. `values` must hold config().num_kpis floats (checked
  /// against `num_kpis`; a mismatch is kRejected, not fatal — transports
  /// carry malformed rows). The sink may read `values` in place during
  /// this call; nothing keeps the pointer after it returns.
  PushResult Push(int sector, int hour, const float* values, int num_kpis);
  PushResult Push(int sector, int hour, const std::vector<float>& values) {
    return Push(sector, hour, values.data(),
                static_cast<int>(values.size()));
  }

  /// End-of-stream: finalizes everything still buffered (gap-filling
  /// interior holes) so the last watermark window reaches the sink.
  void Flush();

  /// Hours already handed to the sink for `sector` (the sector's
  /// finalized frontier: hours [0, FlushedHours) are done).
  int FlushedHours(int sector) const;

  const IngestorConfig& config() const { return config_; }

 private:
  struct SectorState {
    std::vector<float> ring;     ///< ring_hours x num_kpis values: rows
                                 ///< that arrived ahead of a hole
    std::vector<uint8_t> filled; ///< ring_hours occupancy flags
    int next_flush = 0;          ///< first hour not yet emitted
    int max_seen = -1;           ///< newest accepted hour
  };

  /// Cached counter handles, re-resolved when the installed context
  /// changes; Push is too hot for a name lookup per row.
  struct Counters {
    void Refresh();
    obs::Counter* offered = nullptr;
    obs::Counter* accepted = nullptr;
    obs::Counter* reordered = nullptr;
    obs::Counter* duplicate = nullptr;
    obs::Counter* late = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* gap_filled = nullptr;
    const void* context = nullptr;
  };

  /// Emits finalized hours of `state`: the filled contiguous prefix
  /// always; unfilled hours too once the watermark passes them (or
  /// unconditionally up to max_seen when `to_end`).
  void Advance(int sector, SectorState* state, bool to_end);

  IngestorConfig config_;
  KpiRowSink sink_;
  std::vector<SectorState> sectors_;
  std::vector<float> gap_row_;  ///< reusable all-NaN row
  Counters counters_;
};

}  // namespace hotspot::stream

#endif  // HOTSPOT_STREAM_KPI_STREAM_H_
