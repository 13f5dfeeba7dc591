#include "pipeline/serving_pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/pipeline_context.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace hotspot::pipeline {

namespace {

constexpr const char* kPhaseNames[] = {"ingest", "features", "predict",
                                       "monitor"};

/// Min-merge of ingress stamps, 0-aware (0 = unstamped, never wins).
void MergeBorn(uint64_t* dst, uint64_t src) {
  if (src != 0 && (*dst == 0 || src < *dst)) *dst = src;
}

}  // namespace

void RowBlock::Grow() {
  HOTSPOT_CHECK_GT(num_kpis_, 0) << "a RowBlock needs its row width";
  const size_t capacity = std::max<size_t>(16, 2 * sectors_.size());
  sectors_.resize(capacity);
  hours_.resize(capacity);
  values_.resize(capacity * static_cast<size_t>(num_kpis_));
}

void ServingPipeline::Obs::Refresh() {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  if (ctx == context) return;
  *this = Obs{};
  context = ctx;
  if (ctx == nullptr) return;
  obs::MetricsRegistry& metrics = ctx->metrics();
  rows_offered = &metrics.counter("stream/rows_offered");
  rows_rejected = &metrics.counter("stream/rows_rejected");
  prediction_batches = &metrics.counter("stream/prediction_batches");
  predictions = &metrics.counter("stream/predictions");
  outcomes_recorded = &metrics.counter("stream/outcomes_recorded");
  ingress_depth = &metrics.gauge("pipeline/ingest_queue_depth");
  ingress_backpressure =
      &metrics.counter("pipeline/ingest_backpressure_waits");
  flight = &ctx->flight();
  for (int phase = 0; phase < kNumPhases; ++phase) {
    const std::string prefix = std::string("pipeline/") + kPhaseNames[phase];
    items[phase] = &metrics.counter(prefix + "_items");
    latency[phase] = &metrics.histogram(prefix + "_latency_seconds",
                                        obs::DefaultLatencySeconds());
    residency[phase] = &metrics.histogram(
        "pipeline/stage" + std::to_string(phase) + "/residency_seconds",
        obs::DefaultLatencySeconds());
  }
}

ServingPipeline::ServingPipeline(ForecastService* service,
                                 const Options& options)
    : service_(service),
      options_(options),
      ingress_(std::max(1, options.row_queue_blocks)),
      input_block_(options.num_kpis),
      ordered_(options.num_kpis) {
  HOTSPOT_CHECK(service_ != nullptr);
  HOTSPOT_CHECK_GT(options_.num_sectors, 0);
  HOTSPOT_CHECK_GT(options_.num_kpis, 0);
  HOTSPOT_CHECK(options_.calendar != nullptr);
  HOTSPOT_CHECK_GE(options_.row_block_rows, 1);
  const int window_hours = service_->window_hours();
  horizon_days_ = service_->horizon_days();

  stream::FeatureEngineConfig feature_config;
  feature_config.num_sectors = options_.num_sectors;
  feature_config.num_kpis = options_.num_kpis;
  feature_config.calendar = options_.calendar;
  feature_config.score =
      options_.score.value_or(service_->bundle_snapshot()->score);
  feature_config.history_weeks = options_.history_weeks;
  feature_config.window_hours = window_hours;
  engine_ =
      std::make_unique<stream::IncrementalFeatureEngine>(feature_config);
  HOTSPOT_CHECK_EQ(engine_->channels(), service_->num_channels());
  // A window must still be in history when its end-day becomes servable;
  // the frontier can run up to one week past the last served day, so
  // retention needs the window plus that slack (the runner's check).
  HOTSPOT_CHECK_GE(engine_->history_hours(),
                   window_hours + kHoursPerWeek);

  stream::IngestorConfig ingest_config;
  ingest_config.num_sectors = options_.num_sectors;
  ingest_config.num_kpis = options_.num_kpis;
  ingest_config.watermark_hours = options_.watermark_hours;
  ingest_config.ring_hours = options_.ring_hours;
  ingestor_ = std::make_unique<stream::KpiStreamIngestor>(
      ingest_config,
      [this](int sector, int hour, const float* values, int) {
        ordered_.Append(sector, hour, values);
      });

  next_end_day_.store(service_->window_days(), std::memory_order_relaxed);
  next_outcome_day_ = service_->window_days() + horizon_days_;

  // A dedicated thread, NOT a pool worker: ParallelFor waits for every
  // helper task it submitted to run, so parking this loop on a pool
  // worker could starve its own nested fan-outs into deadlock.
  worker_ = std::thread([this] { WorkerLoop(); });
}

ServingPipeline::~ServingPipeline() { Finish(); }

bool ServingPipeline::Push(int sector, int hour, const float* values,
                           int num_kpis) {
  if (input_closed_) return false;
  if (num_kpis != options_.num_kpis) {
    // Pre-queue reject: the ingestor never sees this row, so account for
    // it here (the in-contract rows are counted by the ingestor itself).
    producer_obs_.Refresh();
    if (producer_obs_.rows_offered != nullptr) {
      producer_obs_.rows_offered->Increment();
      producer_obs_.rows_rejected->Increment();
    }
    return false;
  }
  Append(sector, hour, values);
  if (input_block_.rows() >= options_.row_block_rows) FlushInput();
  return true;
}

bool ServingPipeline::TryPush(int sector, int hour, const float* values) {
  if (input_closed_) return false;
  // Make room before accepting, so a refused row is still the caller's.
  if (input_block_.rows() >= options_.row_block_rows) {
    if (!ingress_.TryPush(input_block_)) return false;
    ResetInputBlock();  // TryPush moved the block in; refill the husk
  }
  Append(sector, hour, values);
  return true;
}

void ServingPipeline::Append(int sector, int hour, const float* values) {
  // The first row stamps the block: one clock read per block, and
  // residency includes the wait for the block to fill and to be popped.
  if (input_block_.rows() == 0) input_block_.born_ns = SteadyNowNs();
  input_block_.Append(sector, hour, values);
}

void ServingPipeline::FlushInput() {
  if (input_closed_ || input_block_.rows() == 0) return;
  ingress_.Push(std::move(input_block_));
  ResetInputBlock();
}

void ServingPipeline::ResetInputBlock() {
  // Without a recycled block, the moved-from husk stays: empty, no
  // capacity, for Append to grow.
  std::lock_guard<std::mutex> lock(free_blocks_mutex_);
  if (free_blocks_.empty()) return;
  input_block_ = std::move(free_blocks_.back());
  free_blocks_.pop_back();
}

void ServingPipeline::Finish() {
  if (input_closed_) return;
  FlushInput();
  input_closed_ = true;
  ingress_.Close();
  worker_.join();
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    // Cold path (once per pipeline lifetime): a snapshot taken after
    // Finish still shows how full the ingress queue ever ran.
    ctx->metrics()
        .gauge("pipeline/ingest_queue_high_water")
        .Set(static_cast<double>(ingress_.Stats().high_water));
  }
  finished_.store(true, std::memory_order_release);
}

std::vector<StreamingPrediction> ServingPipeline::TakePredictions() {
  std::lock_guard<std::mutex> lock(results_mutex_);
  std::vector<StreamingPrediction> taken = std::move(results_);
  results_.clear();
  return taken;
}

std::vector<StageStats> ServingPipeline::StageSnapshot() const {
  std::vector<StageStats> stages(kNumPhases);
  for (int phase = 0; phase < kNumPhases; ++phase) {
    const PhaseBooks& books = phases_[phase];
    StageStats& stage = stages[static_cast<size_t>(phase)];
    stage.name = kPhaseNames[phase];
    stage.items_in = books.items_in.load(std::memory_order_relaxed);
    stage.items_out = books.items_out.load(std::memory_order_relaxed);
    stage.busy_seconds = books.busy_seconds.load(std::memory_order_relaxed);
  }
  stages[kIngest].input = ingress_.Stats();
  return stages;
}

void ServingPipeline::WorkerLoop() {
  RowBlock block(options_.num_kpis);
  while (true) {
    // Closed and drained, Pop leaves `block` empty (the cleared husk of
    // the last recycled block), and RunBlock ends the stream.
    const bool open = ingress_.Pop(&block);
    obs_.Refresh();
    NoteIngress();
    RunBlock(block);
    if (!open) return;
    block.Clear();
    std::lock_guard<std::mutex> lock(free_blocks_mutex_);
    free_blocks_.push_back(std::move(block));
  }
}

void ServingPipeline::NoteIngress() {
  // One Stats() read feeds the depth gauge, the backpressure counter and
  // the high-water flight events.
  const QueueStats stats = ingress_.Stats();
  const uint64_t waits = stats.push_waits - seen_push_waits_;
  seen_push_waits_ = stats.push_waits;
  const bool new_high_water = stats.high_water > seen_high_water_;
  seen_high_water_ = std::max(seen_high_water_, stats.high_water);
  if (obs_.context == nullptr) return;
  obs_.ingress_depth->Set(static_cast<double>(stats.depth));
  if (waits > 0) {
    // Producers that had to wait for the worker since the last block:
    // one flight event per burst of new waits, not per wait.
    obs_.ingress_backpressure->Add(waits);
    obs_.flight->Record(obs::FlightEventKind::kBackpressure, kIngest,
                        static_cast<int64_t>(waits));
  }
  if (new_high_water) {
    obs_.flight->Record(obs::FlightEventKind::kQueueHighWater, kIngest,
                        stats.high_water);
  }
}

void ServingPipeline::RunBlock(const RowBlock& block) {
  const uint64_t start = SteadyNowNs();
  ObserveResidency(kIngest, block.born_ns, block.rows(), start);
  for (int r = 0; r < block.rows(); ++r) {
    if (block.hour(r) >= options_.calendar->rows()) {
      // No calendar row can featurize this hour, and the ingestor would
      // gap-fill up to it: refused, and counted as a negative hour is.
      if (obs_.rows_offered != nullptr) {
        obs_.rows_offered->Increment();
        obs_.rows_rejected->Increment();
      }
      continue;
    }
    ingestor_->Push(block.sector(r), block.hour(r), block.values(r),
                    options_.num_kpis);
  }
  if (block.rows() == 0) ingestor_->Flush();
  const uint64_t now = EndPhase(kIngest, start, block.rows() > 0 ? 1 : 0,
                                static_cast<uint64_t>(ordered_.rows()));
  // Rows the ingestor still holds in its reorder window come out with a
  // later block; a block that released none leaves the engine unchanged.
  if (ordered_.rows() > 0) RunFeatures(block.born_ns, now);
}

void ServingPipeline::RunFeatures(uint64_t born_ns, uint64_t now) {
  const int rows = ordered_.rows();
  ObserveResidency(kFeatures, born_ns, rows, now);
  // The released rows came out while this block was unpacked, so its
  // stamp stands for them (an upper bound for rows the ingestor held).
  MergeBorn(&pending_serve_born_ns_, born_ns);
  for (int r = 0; r < rows; ++r) {
    engine_->Consume(ordered_.sector(r), ordered_.hour(r), ordered_.values(r),
                     options_.num_kpis);
  }
  ordered_.Clear();
  ServeReady(EndPhase(kFeatures, now, static_cast<uint64_t>(rows), 0));
}

void ServingPipeline::ServeReady(uint64_t now) {
  // Ready prediction batches first, matured label days second — the
  // order the direct-call loop used, so the monitor sees the same
  // sequence of scores and outcomes.
  int end_day = next_end_day_.load(std::memory_order_relaxed);
  const int first_end_day = end_day;
  while (engine_->min_finalized_hours() >= kHoursPerDay * end_day) {
    StreamingPrediction prediction;
    prediction.end_day = end_day;
    prediction.target_day = end_day + horizon_days_;
    // Batches opened by the same consumed rows share the oldest
    // contributing stamp — residency measures worst-case row age.
    prediction.born_ns = pending_serve_born_ns_;
    const WindowBatch windows = engine_->ServingWindows(end_day);
    next_end_day_.store(++end_day, std::memory_order_relaxed);
    now = EndPhase(kFeatures, now, 0, 1);

    ObserveResidency(kPredict, prediction.born_ns, prediction.end_day, now);
    {
      HOTSPOT_SPAN("pipeline/predict");
      if (options_.predict_fault_for_test) {
        options_.predict_fault_for_test(prediction.end_day);
      }
      // The shadow tee sees the exact windows the champion is about to
      // score, before the score — so a shadow model fed from here scores
      // byte-identical inputs with no synchronization beyond the tee's
      // own handoff.
      if (options_.predict_tee) {
        options_.predict_tee(prediction.end_day, prediction.target_day,
                             windows);
      }
      prediction.scores = service_->Predict(windows, &prediction.generation);
    }
    if (obs_.prediction_batches != nullptr) {
      obs_.prediction_batches->Increment();
      obs_.predictions->Add(static_cast<uint64_t>(prediction.scores.size()));
    }
    now = EndPhase(kPredict, now, 1, 1);

    ObserveResidency(kMonitor, prediction.born_ns, prediction.end_day, now);
    Deliver(std::move(prediction));
    now = EndPhase(kMonitor, now, 1, 1);
  }
  if (end_day > first_end_day) pending_serve_born_ns_ = 0;
  while (engine_->min_closed_days() > next_outcome_day_) {
    const int day = next_outcome_day_++;
    std::vector<float> labels = GatherDayLabels(*engine_, day);
    now = EndPhase(kFeatures, now, 0, 1);
    if (options_.outcome_tee) options_.outcome_tee(day, labels, *engine_);
    matured_labels_[day] = std::move(labels);
    RecordReadyOutcomes();
    now = EndPhase(kMonitor, now, 1, 0);
  }
}

void ServingPipeline::Deliver(StreamingPrediction prediction) {
  awaiting_outcomes_.push_back(prediction);
  pending_outcomes_.store(static_cast<int>(awaiting_outcomes_.size()),
                          std::memory_order_relaxed);
  if (options_.prediction_tee) options_.prediction_tee(prediction);
  {
    std::lock_guard<std::mutex> lock(results_mutex_);
    results_.push_back(std::move(prediction));
  }
  RecordReadyOutcomes();
}

void ServingPipeline::RecordReadyOutcomes() {
  while (!awaiting_outcomes_.empty()) {
    const StreamingPrediction& front = awaiting_outcomes_.front();
    auto labels = matured_labels_.find(front.target_day);
    if (labels == matured_labels_.end()) break;
    service_->RecordOutcomes(front.scores, labels->second);
    if (obs_.outcomes_recorded != nullptr) {
      obs_.outcomes_recorded->Add(
          static_cast<uint64_t>(labels->second.size()));
    }
    matured_labels_.erase(labels);
    awaiting_outcomes_.pop_front();
    pending_outcomes_.store(static_cast<int>(awaiting_outcomes_.size()),
                            std::memory_order_relaxed);
  }
}

uint64_t ServingPipeline::EndPhase(Phase phase, uint64_t start_ns,
                                   uint64_t in, uint64_t out) {
  const uint64_t now = SteadyNowNs();
  const double seconds =
      now > start_ns ? static_cast<double>(now - start_ns) * 1e-9 : 0.0;
  PhaseBooks& books = phases_[phase];
  books.items_in.fetch_add(in, std::memory_order_relaxed);
  books.items_out.fetch_add(out, std::memory_order_relaxed);
  books.busy_seconds.store(
      books.busy_seconds.load(std::memory_order_relaxed) + seconds,
      std::memory_order_relaxed);
  if (obs_.items[phase] != nullptr) {
    obs_.items[phase]->Add(in);
    obs_.latency[phase]->Observe(seconds);
  }
  return now;
}

void ServingPipeline::ObserveResidency(Phase phase, uint64_t born_ns,
                                       int64_t exemplar, uint64_t now) {
  if (obs_.residency[phase] == nullptr || born_ns == 0) return;
  const double seconds =
      now > born_ns ? static_cast<double>(now - born_ns) * 1e-9 : 0.0;
  obs_.residency[phase]->ObserveWithExemplar(seconds, exemplar);
}

}  // namespace hotspot::pipeline
