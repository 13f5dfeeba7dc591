#ifndef HOTSPOT_PIPELINE_SERVING_PIPELINE_H_
#define HOTSPOT_PIPELINE_SERVING_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/forecast_service.h"
#include "core/serving_ops.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "pipeline/bounded_queue.h"
#include "pipeline/stage.h"
#include "stream/incremental_features.h"
#include "stream/kpi_stream.h"
#include "tensor/matrix.h"
#include "tensor/temporal.h"

namespace hotspot::pipeline {

/// A block of KPI rows in delivery order — the unit the ingress queue
/// carries, so the per-row hot path amortizes one lock + one clock read
/// over `rows()` rows instead of paying them per row.
///
/// Refilled by index: the block keeps its own row count, and Clear()
/// resets only that count, so a recycled block's Append is a sector, an
/// hour and a num_kpis-float copy into storage it already holds (the
/// arrays grow only past their largest fill). A moved-from block reads
/// as empty, holds no storage and refills from row 0.
class RowBlock {
 public:
  explicit RowBlock(int num_kpis) : num_kpis_(num_kpis) {}
  RowBlock(RowBlock&& other) noexcept { *this = std::move(other); }
  RowBlock& operator=(RowBlock&& other) noexcept {
    sectors_ = std::exchange(other.sectors_, {});
    hours_ = std::exchange(other.hours_, {});
    values_ = std::exchange(other.values_, {});
    rows_ = std::exchange(other.rows_, 0);
    num_kpis_ = other.num_kpis_;
    born_ns = std::exchange(other.born_ns, 0);
    return *this;
  }

  int rows() const { return rows_; }
  int sector(int row) const { return sectors_[static_cast<size_t>(row)]; }
  int hour(int row) const { return hours_[static_cast<size_t>(row)]; }
  /// Row `row`'s num_kpis values.
  const float* values(int row) const {
    return values_.data() +
           static_cast<size_t>(row) * static_cast<size_t>(num_kpis_);
  }

  /// Appends one row; `values` holds the block's num_kpis floats.
  void Append(int sector, int hour, const float* values) {
    const size_t row = static_cast<size_t>(rows_);
    if (row == sectors_.size()) Grow();
    sectors_[row] = sector;
    hours_[row] = hour;
    std::memcpy(values_.data() + row * static_cast<size_t>(num_kpis_),
                values, static_cast<size_t>(num_kpis_) * sizeof(float));
    ++rows_;
  }
  /// Empties the block; its storage stays for the next fill.
  void Clear() {
    rows_ = 0;
    born_ns = 0;
  }

  /// Telemetry stamp: SteadyNowNs() when the block's first row entered the
  /// serving stack (0 = unstamped) — the base of every residency the
  /// pipeline records for the block's rows.
  uint64_t born_ns = 0;

 private:
  /// Doubles the row capacity (at least 16 rows), keeping every row.
  void Grow();

  std::vector<int> sectors_;
  std::vector<int> hours_;
  std::vector<float> values_;  ///< capacity x num_kpis_, row-major
  int rows_ = 0;
  int num_kpis_ = 0;
};

/// The one way to stand up a streaming serving path: ingest → incremental
/// features → predict → monitor behind a single facade, run to completion
/// on one dedicated worker thread.
///
/// Dataflow:
///
///   Push() ─row blocks─▶ [ingress queue] ─▶ worker, per block, inline:
///       ingest    reorder/dedup/gap-fill (KpiStreamIngestor)
///       features  incremental Eq.1/2 features (IncrementalFeatureEngine)
///     then for every end-day the block made servable, in order:
///       predict   ForecastService::Predict over the engine's rows, in
///                 place (pool fan-out)
///       monitor   delivery; matured labels → RecordOutcomes
///
/// The ingress queue is a BoundedQueue and the only place the pipeline
/// waits or sheds: while the worker is behind, Push blocks the caller —
/// it never drops or reorders a row — and TryPush refuses the row. A slow
/// predict therefore surfaces as ingress backpressure (visible in the
/// pipeline/ingest_* counters), not as silently lost late KPI rows. The
/// worker finishes each block before it pops the next, so nothing waits
/// between phases: once a row reaches the worker, every batch it makes
/// servable is served without any further input (FlushInput is all a
/// quiet feed needs).
///
/// Determinism: one consumer of a FIFO queue runs the phases as plain
/// calls, so rows, windows and scores flow in the exact order of the
/// direct-call path; inference fans out over the shared deterministic
/// thread pool with index-owned writes. A batch's windows are the
/// engine's mirrored history rows (IncrementalFeatureEngine::
/// ServingWindows), read in place — nothing is assembled per batch.
/// Streamed scores are bitwise-identical to batch PredictAtDay at any
/// HOTSPOT_NUM_THREADS and any queue bound — pinned by
/// tests/pipeline_test.cc, slow-predict injection included.
///
/// The worker is a dedicated thread rather than a pool task: ParallelFor
/// blocks until every helper task it submitted has run, so parking a
/// long-lived loop on a pool worker could starve its own nested fan-outs
/// into deadlock. The worker blocks on the ingress queue when idle; all
/// compute still lands on the pool.
///
/// Threading contract: Push / TryPush / FlushInput / Finish are
/// single-writer (one producer thread at a time, the KpiStreamIngestor
/// discipline). TakePredictions(), StageSnapshot(), IngressStats() and
/// the frontier accessors are safe from any thread at any time. Every
/// callback and tap in Options runs on the worker thread.
class ServingPipeline {
 public:
  /// Everything a serving path is configured by, in one place.
  struct Options {
    // --- serving universe (must match the service's bundle) ---
    int num_sectors = 0;
    int num_kpis = 0;
    /// Enriched calendar matrix C (hours x 5) covering every hour the
    /// stream will reach. Not owned; must outlive the pipeline.
    const Matrix<float>* calendar = nullptr;
    /// Operator scoring config; defaults to the bundle's own ScoreConfig
    /// when unset — the common case.
    std::optional<ScoreConfig> score;
    /// Finalized feature rows retained per sector, in weeks; must cover
    /// the serving window plus one week of frontier slack (checked).
    int history_weeks = 8;

    // --- ingest policy (KpiStreamIngestor) ---
    int watermark_hours = kHoursPerDay;
    int ring_hours = 2 * kHoursPerDay;

    // --- ingress ---
    /// Rows per ingress block.
    int row_block_rows = 64;
    /// Capacity, in blocks, of the ingress queue: how far the producer
    /// may run ahead of the worker before Push blocks (or TryPush
    /// refuses — for a fleet shard this is its admission budget).
    int row_queue_blocks = 64;

    // --- taps (all optional, and strictly read-only with respect to the
    // serving path — with none installed nothing changes, and with them
    // installed the served scores stay bitwise-identical; src/adapt
    // chains its three onto these) ---
    /// Shadow-scoring tee: called on the worker for every prediction
    /// batch BEFORE the champion scores it, with the windows it scores.
    /// The view reads the engine's history and is valid only for the
    /// call — a consumer that scores asynchronously must copy.
    std::function<void(int end_day, int target_day,
                       const WindowBatch& windows)>
        predict_tee;
    /// Push delivery: called on the worker for every served batch, in
    /// end-day order. Predictions are also always collected for
    /// TakePredictions().
    std::function<void(const StreamingPrediction&)> prediction_tee;
    /// Matured-label tee: called on the worker when a day's ground-truth
    /// labels close in the stream, with the feature engine — valid only
    /// for the call, and not being fed during it — so a consumer can cut
    /// training inputs out of the served history.
    std::function<void(int day, const std::vector<float>& labels,
                       const stream::IncrementalFeatureEngine& engine)>
        outcome_tee;

    // --- test / chaos knob ---
    /// Fault-injection hook: runs on the worker before each prediction
    /// batch is scored, with the batch's end-day. Tests sleep here to
    /// rehearse a slow predict shard and watch backpressure engage, or
    /// park a shard on a latch — the FaultInjectingService seam
    /// tests/fleet_test.cc drives. Must not call back into the pipeline.
    std::function<void(int end_day)> predict_fault_for_test;
  };

  /// `service` is not owned and must outlive the pipeline; its monitoring
  /// is configured on the service (ForecastService::EnableMonitoring), and
  /// the pipeline feeds matured labels to whatever monitor it runs.
  /// Construction starts the worker thread; the pipeline is live
  /// (accepting Push) when the constructor returns.
  ServingPipeline(ForecastService* service, const Options& options);

  /// Drains and joins (Finish) if the caller has not already.
  ~ServingPipeline();

  ServingPipeline(const ServingPipeline&) = delete;
  ServingPipeline& operator=(const ServingPipeline&) = delete;

  /// Offers one hourly KPI row, in any transport order; NaN marks a
  /// missing reading. Blocks while the ingress queue is full. Returns
  /// false — and drops the row — only when `num_kpis` mismatches the
  /// configured width (counted under stream/rows_rejected) or the
  /// pipeline is already finished; every other verdict (an hour past
  /// Options::calendar too) lands asynchronously in stream/rows_*.
  bool Push(int sector, int hour, const float* values, int num_kpis);
  bool Push(int sector, int hour, const std::vector<float>& values) {
    return Push(sector, hour, values.data(),
                static_cast<int>(values.size()));
  }

  /// Non-blocking admission, for a producer that must never wait (the
  /// fleet's Push). Like Push, except that when the row would need a full
  /// ingress queue to take the current block it returns false and leaves
  /// the row with the caller. A row is only ever refused while it is
  /// still the caller's: once accepted it is served, never dropped.
  /// `values` must hold Options::num_kpis floats (the caller checks the
  /// width); false as well once the pipeline is finished.
  bool TryPush(int sector, int hour, const float* values);

  /// Hands the producer-side partial row block to the worker now instead
  /// of waiting for it to fill (blocking while the ingress queue is full)
  /// — call when the feed goes quiet. Every batch those rows make
  /// servable is then served without further input.
  void FlushInput();

  /// End-of-stream: flushes buffered input, finalizes the ingestor's
  /// watermark window (gap-filling interior holes), serves everything it
  /// makes ready and joins the worker. Idempotent; Push afterwards
  /// returns false. Also publishes the final ingress high-water gauge.
  void Finish();

  bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }

  /// Served predictions accumulated since the last call, in end-day
  /// order. Thread-safe; call during streaming or after Finish().
  std::vector<StreamingPrediction> TakePredictions();

  /// The next window end-day the pipeline will serve once the stream
  /// reaches it (the serving frontier).
  int next_end_day() const {
    return next_end_day_.load(std::memory_order_relaxed);
  }
  /// Served predictions whose target day has not matured in the stream.
  int pending_outcomes() const {
    return pending_outcomes_.load(std::memory_order_relaxed);
  }

  /// Point-in-time accounting of the four phases (ingest, features,
  /// predict, monitor — in dataflow order).
  std::vector<StageStats> StageSnapshot() const;
  /// The ingress queue's accounting (also StageSnapshot()[0].input).
  QueueStats IngressStats() const { return ingress_.Stats(); }

 private:
  enum Phase { kIngest = 0, kFeatures, kPredict, kMonitor, kNumPhases };

  /// Cached obs handles, re-resolved only when the installed
  /// PipelineContext changes, so the hot paths are pointer tests and
  /// lock-free increments, never a name lookup. Null context = counting
  /// off.
  struct Obs {
    void Refresh();
    const void* context = nullptr;
    obs::Counter* rows_offered = nullptr;
    obs::Counter* rows_rejected = nullptr;
    obs::Counter* prediction_batches = nullptr;
    obs::Counter* predictions = nullptr;
    obs::Counter* outcomes_recorded = nullptr;
    obs::Gauge* ingress_depth = nullptr;
    obs::Counter* ingress_backpressure = nullptr;
    obs::FlightRecorder* flight = nullptr;
    /// Per phase: pipeline/<phase>_items, pipeline/<phase>_latency_seconds
    /// and pipeline/stageK/residency_seconds.
    obs::Counter* items[kNumPhases] = {};
    obs::Histogram* latency[kNumPhases] = {};
    obs::Histogram* residency[kNumPhases] = {};
  };

  /// One phase's books: atomics so StageSnapshot() can read them from any
  /// thread while the worker, their only writer, updates them.
  struct PhaseBooks {
    std::atomic<uint64_t> items_in{0};
    std::atomic<uint64_t> items_out{0};
    std::atomic<double> busy_seconds{0.0};
  };

  // Producer side.
  void Append(int sector, int hour, const float* values);
  void ResetInputBlock();

  // Worker side.
  void WorkerLoop();
  /// Ingest, then features on whatever ordered rows the block released.
  /// An empty block ends the stream: it finalizes the ingestor's
  /// watermark window (gap-filling interior holes) instead.
  void RunBlock(const RowBlock& block);
  /// Feeds the ordered-row scratch to the engine, then serves what that
  /// made ready.
  void RunFeatures(uint64_t born_ns, uint64_t now);
  /// Predicts and delivers every ready end-day, then ships every newly
  /// matured label day to the monitor.
  void ServeReady(uint64_t now);
  void Deliver(StreamingPrediction prediction);
  /// Records every awaiting prediction whose target-day labels arrived.
  void RecordReadyOutcomes();
  /// Publishes ingress depth, backpressure waits and high-water marks
  /// seen since the last call.
  void NoteIngress();
  /// Books one run of `phase` that started at `start_ns` (time, items,
  /// latency histogram) and returns the end stamp — the next phase's
  /// start, so consecutive phases share one clock read.
  uint64_t EndPhase(Phase phase, uint64_t start_ns, uint64_t in,
                    uint64_t out);
  /// Residency of rows stamped `born_ns` as they enter `phase`:
  /// cumulative time since serving-stack ingress.
  void ObserveResidency(Phase phase, uint64_t born_ns, int64_t exemplar,
                        uint64_t now);

  ForecastService* service_;
  Options options_;
  // Cached serving-universe invariant (fixed across bundle promotions), so
  // the worker never dereferences the swappable bundle.
  int horizon_days_ = 0;

  std::unique_ptr<stream::IncrementalFeatureEngine> engine_;
  std::unique_ptr<stream::KpiStreamIngestor> ingestor_;
  BoundedQueue<RowBlock> ingress_;
  std::thread worker_;

  // Producer side (single-writer). This section and the worker's each
  // start on a cache line of their own, so the producer's per-row writes
  // never share a line with worker state, whatever the size of the
  // members above (replay's CPU per pass moves ~7% with that layout).
  alignas(64) RowBlock input_block_;
  bool input_closed_ = false;
  Obs producer_obs_;

  // Blocks the worker has run, cleared but keeping their capacity, for the
  // producer's next input block: in steady state Append never grows a
  // vector, and every buffer is freed by the thread that allocated it.
  alignas(64) std::mutex free_blocks_mutex_;
  std::vector<RowBlock> free_blocks_;

  // Worker state.
  alignas(64) Obs obs_;
  /// Ordered rows the ingestor released for the block being processed;
  /// empty whenever the worker is idle.
  RowBlock ordered_;
  std::atomic<int> next_end_day_{0};
  int next_outcome_day_ = 0;
  /// Oldest ingress stamp among rows consumed since the last served
  /// batch; becomes the born_ns of the next batch.
  uint64_t pending_serve_born_ns_ = 0;
  std::deque<StreamingPrediction> awaiting_outcomes_;
  std::map<int, std::vector<float>> matured_labels_;
  std::atomic<int> pending_outcomes_{0};
  PhaseBooks phases_[kNumPhases];
  uint64_t seen_push_waits_ = 0;
  int seen_high_water_ = 0;

  std::mutex results_mutex_;
  std::vector<StreamingPrediction> results_;

  std::atomic<bool> finished_{false};
};

}  // namespace hotspot::pipeline

#endif  // HOTSPOT_PIPELINE_SERVING_PIPELINE_H_
