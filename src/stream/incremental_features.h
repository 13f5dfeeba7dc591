#ifndef HOTSPOT_STREAM_INCREMENTAL_FEATURES_H_
#define HOTSPOT_STREAM_INCREMENTAL_FEATURES_H_

#include <functional>
#include <vector>

#include "core/config.h"
#include "obs/metrics.h"
#include "stream/kpi_stream.h"
#include "tensor/matrix.h"
#include "tensor/temporal.h"
#include "tensor/window_batch.h"

namespace hotspot::stream {

/// Configuration of the incremental feature engine.
struct FeatureEngineConfig {
  int num_sectors = 0;
  int num_kpis = 0;
  /// The enriched calendar matrix C (hours x 5) covering every hour the
  /// stream will reach — the same matrix the batch FeatureTensor consumes
  /// (simnet::StudyCalendar::BuildCalendarMatrix). Not owned; must outlive
  /// the engine.
  const Matrix<float>* calendar = nullptr;
  /// Operator scoring config: Eq. 1 indicators plus the hot threshold ε
  /// the daily labels are cut at.
  ScoreConfig score;
  /// Finalized feature rows (and daily labels) retained per sector, in
  /// weeks. Must cover the serving window plus at least one week of slack
  /// (ServingPipeline checks).
  int history_weeks = 8;
  /// The served bundle's window, in hours (ForecastService::window_hours(),
  /// which ServingPipeline passes). Rows landing in the history ring's
  /// first `window_hours` slots are written a second time past its end,
  /// so every window of this length is contiguous and ServingWindows()
  /// hands it out in place. 0 = no mirror (CopyFeatureRows only).
  int window_hours = 0;
};

/// Incremental replacement for the batch score → label → FeatureTensor
/// pipeline: consumes in-order per-sector KPI rows (the KpiStreamIngestor
/// sink contract) and maintains rolling state — the open week's KPIs and
/// hourly scores and the closed days' scores and labels — so each row
/// costs O(l) amortized, with no offline rebuild. Every sector's open week
/// is staged in one hour-major array (hour of week, then sector), so a
/// feed that sends every sector's hour before the next hour, as an
/// operator scoring the whole network hourly does, writes it in order; a
/// day or week close reads the sector's column.
///
/// Equivalence guarantee: for in-order complete data the emitted feature
/// rows are bitwise-identical to the batch path
/// (ComputeScores → HotSpotLabels → features::FeatureTensor::Build over
/// the same KPI tensor, calendar and ScoreConfig), because every
/// accumulation runs the batch loops' exact order and arithmetic (double
/// accumulators over float samples, NaNs skipped). Locked down by
/// tests/stream_test.cc over a multi-week trace.
///
/// Rows finalize when their week closes: the feature layout carries the
/// enclosing day's and week's integrated scores (Eq. 2 upsampling), so an
/// hour's vector is only final once hour 167 of its week has been
/// consumed. Finalized rows land in a bounded per-sector history ring
/// (history_weeks). Every sector's ring sits in one allocation at a
/// uniform stride, with its first window_hours slots mirrored past its
/// end, so the serving windows of one end day are a strided view
/// (ServingWindows) the predict kernel reads in place.
///
/// Single-writer, like the ingestor. Reads (ServingWindows,
/// CopyFeatureRows, the frontier accessors) are safe from other threads
/// only while no Consume is running — the pattern the runner's fan-out
/// uses.
class IncrementalFeatureEngine {
 public:
  explicit IncrementalFeatureEngine(const FeatureEngineConfig& config);

  IncrementalFeatureEngine(const IncrementalFeatureEngine&) = delete;
  IncrementalFeatureEngine& operator=(const IncrementalFeatureEngine&) =
      delete;

  /// Applies one in-order row (hour must equal the sector's consumed
  /// frontier; the ingestor guarantees this). NaN values mark missing
  /// readings.
  void Consume(int sector, int hour, const float* values, int num_kpis);

  /// Adapter: the KpiRowSink that feeds this engine.
  KpiRowSink IngestorSink() {
    return [this](int sector, int hour, const float* values, int num_kpis) {
      Consume(sector, hour, values, num_kpis);
    };
  }

  /// Feature channels per row: l KPIs + 5 calendar + 3 scores + 1 label.
  int channels() const { return config_.num_kpis + 5 + 3 + 1; }
  int history_hours() const {
    return config_.history_weeks * kHoursPerWeek;
  }

  int finalized_hours(int sector) const;
  /// Slowest sector's finalized frontier — the stream-wide hour up to
  /// which prediction windows can be cut for every sector. O(1): kept as
  /// a running minimum at week closes.
  int min_finalized_hours() const { return finalized_frontier_.min; }
  int closed_days(int sector) const;
  /// Slowest sector's closed days; O(1), kept at day closes.
  int min_closed_days() const { return closed_frontier_.min; }

  /// Daily hot-spot label of a closed day still inside the retention
  /// window (Eq. 4 on the day's integrated score).
  float DailyLabel(int sector, int day) const;

  /// Whether sector `sector` has finalized hours [first_hour, first_hour
  /// + num_hours) and its history ring still holds them: the one
  /// retention rule ServingWindows and CopyFeatureRows check, and what a
  /// caller asks before cutting a span that may be gone.
  bool HoldsSpan(int sector, int first_hour, int num_hours) const;

  /// The serving windows ending at day `end_day`, read in place: window
  /// i holds sector i's rows [24·end_day − window_hours, 24·end_day)
  /// (config().window_hours of them) — what CopyFeatureRows would copy
  /// out. Requires the mirror (window_hours > 0) and HoldsSpan for every
  /// sector. Valid until the next Consume.
  WindowBatch ServingWindows(int end_day) const;

  /// Copies `num_hours` finalized feature rows starting at `first_hour`
  /// into `dst` (num_hours x channels, row-major — one sector slab of the
  /// batch tensor). Requires HoldsSpan.
  void CopyFeatureRows(int sector, int first_hour, int num_hours,
                       float* dst) const;

  const FeatureEngineConfig& config() const { return config_; }

 private:
  struct SectorState {
    float day_scores[kDaysPerWeek];  ///< closed days of the current week
    float day_labels[kDaysPerWeek];
    std::vector<float> label_history;  ///< history_days daily-label ring
    int consumed_hours = 0;  ///< rows applied (the in-order frontier)
    int closed_days = 0;
    int finalized_hours = 0;
  };

  /// A running minimum of one SectorState field over every sector, with
  /// the number of sectors at it.
  struct Frontier {
    int min = 0;
    int at_min = 0;
  };

  struct Counters {
    void Refresh();
    obs::Counter* rows = nullptr;
    obs::Counter* days = nullptr;
    obs::Counter* hot_days = nullptr;
    obs::Counter* weeks = nullptr;
    obs::Counter* feature_rows = nullptr;
    const void* context = nullptr;
  };

  void CloseDay(int sector, SectorState* state, int day);
  void CloseWeek(int sector, SectorState* state, int week);
  /// Books a sector whose `field` just rose from `from`. Only when the
  /// last sector at the minimum leaves it is the field rescanned, so the
  /// rescans are at most one per value the minimum takes.
  void Raise(Frontier* frontier, int SectorState::*field, int from);
  /// Index of (sector, hour of week) in the hour-major open-week staging.
  size_t WeekSlot(int sector, int hour_of_week) const {
    return static_cast<size_t>(hour_of_week) *
               static_cast<size_t>(config_.num_sectors) +
           static_cast<size_t>(sector);
  }
  /// Sector `sector`'s history ring: history_hours() + window_hours slots
  /// of channels() floats; hour h lives in slot h % history_hours(), and
  /// slot history_hours() + s repeats slot s for s < window_hours.
  float* Ring(int sector) {
    return feature_history_.data() +
           static_cast<size_t>(sector) * ring_stride_;
  }
  const float* Ring(int sector) const {
    return feature_history_.data() +
           static_cast<size_t>(sector) * ring_stride_;
  }

  FeatureEngineConfig config_;
  std::vector<SectorState> sectors_;
  /// Every sector's open week, at WeekSlot: 168 x n rows of l KPIs and
  /// 168 x n hourly scores.
  std::vector<float> week_values_;
  std::vector<float> week_scores_;
  /// Every sector's ring, one after another, ring_stride_ floats apart.
  std::vector<float> feature_history_;
  size_t ring_stride_ = 0;
  Frontier closed_frontier_;     ///< over SectorState::closed_days
  Frontier finalized_frontier_;  ///< over SectorState::finalized_hours
  Counters counters_;
};

}  // namespace hotspot::stream

#endif  // HOTSPOT_STREAM_INCREMENTAL_FEATURES_H_
