// The serving runtime's contract tests: BoundedQueue backpressure, its
// half-drain wake rule and drain semantics, the ServingPipeline facade's
// bitwise parity with the direct-call batch path at every thread-matrix
// count (slow-predict injection included — ingress backpressure must
// engage without dropping or reordering a single row — for every
// classifier kind, and at the smallest history, whose ring wraps under
// the served windows), queue-bound edge cases (capacity 1 and capacity
// beyond the stream length), recycled row blocks of every size carrying
// no stale rows, drain-on-shutdown via the destructor, FlushInput serving
// a quiet feed's ready batches, rows past the calendar refused
// mid-stream, the one-worker-thread architecture, and per-phase
// accounting landing in the obs snapshot.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/forecast_service.h"
#include "core/study.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "pipeline/bounded_queue.h"
#include "pipeline/serving_pipeline.h"
#include "pipeline/stage.h"
#include "thread_matrix.h"
#include "util/thread_pool.h"

namespace hotspot {
namespace {

using pipeline::BoundedQueue;
using pipeline::QueueStats;
using pipeline::ServingPipeline;
using pipeline::StageStats;

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueue, FifoOrderAndStats) {
  BoundedQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.Stats().depth, 4);
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out, i);  // strict FIFO — the determinism backbone
  }
  QueueStats stats = queue.Stats();
  EXPECT_EQ(stats.capacity, 4);
  EXPECT_EQ(stats.depth, 0);
  EXPECT_EQ(stats.high_water, 4);
  EXPECT_EQ(stats.pushed, 4u);
  EXPECT_EQ(stats.popped, 4u);
  EXPECT_EQ(stats.push_waits, 0u);
}

TEST(BoundedQueue, PushBlocksOnFullUntilPopFreesASlot) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> second_push_done{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // must block, then succeed — never drop
    second_push_done.store(true);
  });
  // Give the producer time to actually hit the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_push_done.load());
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(second_push_done.load());
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_GE(queue.Stats().push_waits, 1u);
  EXPECT_GT(queue.Stats().push_blocked_seconds, 0.0);
}

TEST(BoundedQueue, ParkedProducerResumesOnlyOnceHalfDrained) {
  BoundedQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.Push(i));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(4));
    pushed.store(true);
  });
  // The wait is booked under the queue's lock just before the producer
  // parks, and the lock is held until it does.
  while (queue.Stats().push_waits == 0) std::this_thread::yield();
  int out = -1;
  ASSERT_TRUE(queue.Pop(&out));  // depth 3: a slot is free, not half
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load());
  ASSERT_TRUE(queue.Pop(&out));  // depth 2 = capacity / 2: the one wake
  producer.join();
  EXPECT_TRUE(pushed.load());
  const QueueStats stats = queue.Stats();
  EXPECT_EQ(stats.push_waits, 1u);
  EXPECT_EQ(stats.depth, 3);
  for (int expected = 2; expected <= 4; ++expected) {
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out, expected);
  }
}

TEST(BoundedQueue, CloseDrainsPendingItemsThenPopReturnsFalse) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.Push(7));
  EXPECT_TRUE(queue.Push(8));
  queue.Close();
  EXPECT_FALSE(queue.Push(9));  // push after close is refused
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));  // pending items survive the close
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(queue.Pop(&out));  // closed and drained
}

TEST(BoundedQueue, CloseWakesABlockedConsumer) {
  BoundedQueue<int> queue(1);
  std::atomic<bool> pop_returned{false};
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(queue.Pop(&out));
    pop_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pop_returned.load());
  queue.Close();
  consumer.join();
  EXPECT_TRUE(pop_returned.load());
}

// ---------------------------------------------------------------------------
// ServingPipeline fixtures (the stream_test recipe: small single-city
// study, GBDT bundle, complete forward-fill-imputed KPIs).

simnet::GeneratorConfig SmallConfig() {
  simnet::GeneratorConfig config;
  config.topology.target_sectors = 60;
  config.topology.num_cities = 1;
  config.weeks = 9;
  config.seed = 77;
  return config;
}

const Study& SharedStudy() {
  static const Study* study = new Study(BuildStudy(StudyInput(SmallConfig())));
  return *study;
}

std::unique_ptr<ForecastService> MakeService(const Study& study) {
  ForecastConfig config;
  config.model = ModelKind::kGbdt;
  config.t = 55;
  config.h = 1;
  config.w = 3;
  config.gbdt.num_iterations = 10;
  config.gbdt.num_leaves = 15;
  config.gbdt.max_bins = 32;
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = study.score_config;
  return std::make_unique<ForecastService>(std::move(bundle));
}

ServingPipeline::Options OptionsFor(const Study& study) {
  ServingPipeline::Options options;
  options.num_sectors = study.num_sectors();
  options.num_kpis = study.network.num_kpis();
  options.calendar = &study.network.calendar_matrix;
  options.score = study.score_config;
  options.history_weeks = study.num_weeks() + 1;
  return options;
}

/// Streams the study's KPI tensor hour-major (all sectors advance
/// together, as live feeds do) through a pipeline built from `options`,
/// finishes it, and returns every served prediction. A non-empty
/// `flush_after` calls FlushInput after each of its row counts in turn,
/// cycling.
std::vector<StreamingPrediction> RunPipelineServe(
    const Study& study, ForecastService* service,
    const ServingPipeline::Options& options,
    std::vector<StageStats>* final_stages = nullptr,
    const std::vector<int>& flush_after = {}) {
  ServingPipeline serving(service, options);
  const int hours = study.network.num_hours();
  size_t next_flush = 0;
  int rows_since_flush = 0;
  for (int j = 0; j < hours; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      EXPECT_TRUE(serving.Push(i, j, study.network.kpis.Slice(i, j),
                               study.network.kpis.dim2()));
      if (!flush_after.empty() &&
          ++rows_since_flush == flush_after[next_flush]) {
        serving.FlushInput();
        rows_since_flush = 0;
        next_flush = (next_flush + 1) % flush_after.size();
      }
    }
  }
  serving.Finish();
  if (final_stages != nullptr) *final_stages = serving.StageSnapshot();
  return serving.TakePredictions();
}

/// The batch references: PredictAtDay at every servable end day.
std::vector<std::vector<float>> BatchScores(const Study& study,
                                            const ForecastService& service) {
  std::vector<std::vector<float>> scores;
  for (int end_day = service.bundle().window_days;
       end_day <= study.num_days(); ++end_day) {
    scores.push_back(service.PredictAtDay(study.features, end_day));
  }
  return scores;
}

void ExpectBitwiseEqualToBatch(
    const std::vector<StreamingPrediction>& served,
    const std::vector<std::vector<float>>& batch, int window_days,
    const std::string& tag) {
  ASSERT_EQ(served.size(), batch.size()) << tag;
  for (size_t b = 0; b < served.size(); ++b) {
    EXPECT_EQ(served[b].end_day, window_days + static_cast<int>(b)) << tag;
    ASSERT_EQ(served[b].scores.size(), batch[b].size()) << tag;
    EXPECT_EQ(std::memcmp(served[b].scores.data(), batch[b].data(),
                          batch[b].size() * sizeof(float)),
              0)
        << tag << " end_day=" << served[b].end_day;
  }
}

// ---------------------------------------------------------------------------
// ServingPipeline

TEST(ServingPipeline, BitwiseEqualBatchPredictAtDayAcrossThreads) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const std::vector<std::vector<float>> batch = BatchScores(study, *service);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    std::vector<StreamingPrediction> served =
        RunPipelineServe(study, service.get(), OptionsFor(study));
    ExpectBitwiseEqualToBatch(served, batch,
                              service->bundle().window_days,
                              "threads=" + threads);
  });
}

// Every classifier kind through the pipeline, one body instantiated per
// kind: raw-window bundles (Tree, RF-R, GBDT) score the engine's rows in
// place, RF-F1 and RF-F2 copy each window out for their extractor. Two
// weeks is the least history a 3-day window admits (window plus a week
// of frontier slack), so over the 9-week stream the ring wraps four
// times and windows straddle its end into the mirror. Every sector's
// ring shares one allocation: a read past one sector's mirror lands in
// the next sector's ring, which only a memcmp can see.
class EveryClassifierKind : public ::testing::TestWithParam<ModelKind> {};

TEST_P(EveryClassifierKind, StreamedBatchesBitwiseEqualPredictAtDay) {
  const Study& study = SharedStudy();
  ForecastConfig config;
  config.model = GetParam();
  config.t = 55;
  config.h = 1;
  config.w = 3;
  config.forest.num_trees = 5;
  config.gbdt.num_iterations = 10;
  config.gbdt.num_leaves = 15;
  config.gbdt.max_bins = 32;
  std::unique_ptr<serialize::ForecastBundle> bundle =
      study.MakeForecaster(TargetKind::kBeHotSpot).TrainBundle(config);
  bundle->score = study.score_config;
  ForecastService service(std::move(bundle));
  const std::vector<std::vector<float>> batch = BatchScores(study, service);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ServingPipeline::Options options = OptionsFor(study);
    options.history_weeks = 2;
    std::vector<StreamingPrediction> served =
        RunPipelineServe(study, &service, options);
    ExpectBitwiseEqualToBatch(
        served, batch, config.w,
        std::string(ModelName(GetParam())) + " threads=" + threads);
  });
}

INSTANTIATE_TEST_SUITE_P(
    ServingPipeline, EveryClassifierKind,
    ::testing::Values(ModelKind::kTree, ModelKind::kRfRaw, ModelKind::kRfF1,
                      ModelKind::kRfF2, ModelKind::kGbdt),
    [](const ::testing::TestParamInfo<ModelKind>& info) {
      std::string name = ModelName(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(ServingPipeline, SlowPredictStageEngagesBackpressureWithoutLoss) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const std::vector<std::vector<float>> batch = BatchScores(study, *service);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    obs::PipelineContext context;
    obs::PipelineContext::ScopedInstall install(&context);
    ServingPipeline::Options options = OptionsFor(study);
    // A crawling model behind a one-block ingress queue: while the worker
    // scores, the producer fills the queue at once and must wait.
    options.row_queue_blocks = 1;
    options.row_block_rows = 256;
    options.predict_fault_for_test = [](int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    };
    std::vector<StageStats> stages;
    std::vector<StreamingPrediction> served =
        RunPipelineServe(study, service.get(), options, &stages);
    // Zero loss, zero reordering: every row reached the engine and the
    // scores are still bit-for-bit the batch answers.
    const int total_rows = study.num_sectors() * study.network.num_hours();
    EXPECT_EQ(context.metrics().counter("stream/rows_accepted").Total(),
              static_cast<uint64_t>(total_rows))
        << "threads=" << threads;
    EXPECT_EQ(context.metrics().counter("stream/rows_late_dropped").Total(),
              0u);
    EXPECT_EQ(context.metrics().counter("stream/rows_rejected").Total(), 0u);
    ExpectBitwiseEqualToBatch(served, batch,
                              service->bundle().window_days,
                              "threads=" + threads);
    // And the stall was actually felt as backpressure at the ingress
    // (the producer's pushes had to wait for the slow worker).
    ASSERT_EQ(stages.size(), 4u);
    const StageStats& ingest = stages[0];
    EXPECT_EQ(ingest.name, "ingest");
    EXPECT_GE(ingest.input.push_waits, 1u) << "threads=" << threads;
    EXPECT_GT(ingest.input.push_blocked_seconds, 0.0);
    EXPECT_EQ(context.metrics()
                  .counter("pipeline/ingest_backpressure_waits")
                  .Total(),
              ingest.input.push_waits);
  });
}

TEST(ServingPipeline, QueueCapacityOneIsLosslessAndBitwiseEqual) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const std::vector<std::vector<float>> batch = BatchScores(study, *service);
  ServingPipeline::Options options = OptionsFor(study);
  // The tightest legal pipeline: a one-block ingress queue, one row per
  // block — maximum handoff pressure, same bits out.
  options.row_queue_blocks = 1;
  options.row_block_rows = 1;
  std::vector<StreamingPrediction> served =
      RunPipelineServe(study, service.get(), options);
  ExpectBitwiseEqualToBatch(served, batch, service->bundle().window_days,
                            "capacity=1");
}

TEST(ServingPipeline, QueueCapacityBeyondStreamLengthNeverBlocks) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const std::vector<std::vector<float>> batch = BatchScores(study, *service);
  const int total_rows = study.num_sectors() * study.network.num_hours();
  ServingPipeline::Options options = OptionsFor(study);
  // An ingress queue wider than the whole stream: the producer never
  // waits, still the same bits.
  options.row_block_rows = 64;
  options.row_queue_blocks = total_rows / 64 + 2;
  std::vector<StageStats> stages;
  std::vector<StreamingPrediction> served =
      RunPipelineServe(study, service.get(), options, &stages);
  ExpectBitwiseEqualToBatch(served, batch, service->bundle().window_days,
                            "capacity=stream");
  for (const StageStats& stage : stages) {
    EXPECT_EQ(stage.input.push_waits, 0u) << "stage " << stage.name;
  }
}

// Partial blocks of many sizes through a small queue: a block is refilled
// at a different size than it was run at. A stale row left in one reaches
// the ingestor again and is dropped as a duplicate or late row, which the
// scores cannot show and the counters do.
TEST(ServingPipeline, RecycledBlocksOfEverySizeCarryNoStaleRows) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const std::vector<std::vector<float>> batch = BatchScores(study, *service);
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  ServingPipeline::Options options = OptionsFor(study);
  options.row_queue_blocks = 4;
  std::vector<StreamingPrediction> served =
      RunPipelineServe(study, service.get(), options, nullptr,
                       {1, 7, 63, 64, 65, 2, 130, 33, 5});
  ExpectBitwiseEqualToBatch(served, batch, service->bundle().window_days,
                            "irregular flushes");
  const uint64_t total_rows = static_cast<uint64_t>(
      study.num_sectors() * study.network.num_hours());
  obs::MetricsRegistry& metrics = context.metrics();
  EXPECT_EQ(metrics.counter("stream/rows_offered").Total(), total_rows);
  EXPECT_EQ(metrics.counter("stream/rows_accepted").Total(), total_rows);
  EXPECT_EQ(metrics.counter("stream/rows_duplicate_dropped").Total(), 0u);
  EXPECT_EQ(metrics.counter("stream/rows_late_dropped").Total(), 0u);
}

TEST(ServingPipeline, DestructorDrainsInFlightWorkCleanly) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const std::vector<std::vector<float>> batch = BatchScores(study, *service);
  std::vector<StreamingPrediction> delivered;
  {
    ServingPipeline::Options options = OptionsFor(study);
    options.predict_fault_for_test = [](int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    options.prediction_tee = [&](const StreamingPrediction& prediction) {
      delivered.push_back(prediction);
    };
    ServingPipeline serving(service.get(), options);
    const int hours = study.network.num_hours();
    for (int j = 0; j < hours; ++j) {
      for (int i = 0; i < study.num_sectors(); ++i) {
        serving.Push(i, j, study.network.kpis.Slice(i, j),
                     study.network.kpis.dim2());
      }
    }
    // No Finish(): the destructor must flush the partial input block,
    // drain the ingress queue through the worker and join it — losing
    // none of the in-flight batches.
  }
  ExpectBitwiseEqualToBatch(delivered, batch, service->bundle().window_days,
                            "destructor-drain");
}

TEST(ServingPipeline, DestructorMidStreamWithRowsQueuedAtEveryStage) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const std::vector<std::vector<float>> batch = BatchScores(study, *service);
  std::vector<StreamingPrediction> delivered;
  {
    // A capacity-1 ingress queue, tiny blocks and a slowed predict, so by
    // mid-stream there are rows in the open input block, in the ingress
    // queue and in the worker's hands simultaneously — then the pipeline
    // is destroyed with the feed still live: no Finish(), no quiesce. The
    // destructor must drain all of it cleanly (ASan is the judge of
    // "clean").
    ServingPipeline::Options options = OptionsFor(study);
    options.row_block_rows = 8;
    options.row_queue_blocks = 1;
    options.predict_fault_for_test = [](int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    options.prediction_tee = [&](const StreamingPrediction& prediction) {
      delivered.push_back(prediction);
    };
    ServingPipeline serving(service.get(), options);
    const int hours = study.network.num_hours() / 2;
    for (int j = 0; j < hours; ++j) {
      for (int i = 0; i < study.num_sectors(); ++i) {
        serving.Push(i, j, study.network.kpis.Slice(i, j),
                     study.network.kpis.dim2());
      }
    }
  }
  // Whatever was served is a bitwise-exact prefix of the batch answers:
  // the abandoned pipeline dropped the un-servable tail, never a scored
  // batch, and never tore one.
  const int window_days = service->bundle().window_days;
  ASSERT_GT(delivered.size(), 0u);
  ASSERT_LE(delivered.size(), batch.size());
  for (size_t b = 0; b < delivered.size(); ++b) {
    EXPECT_EQ(delivered[b].end_day, window_days + static_cast<int>(b));
    ASSERT_EQ(delivered[b].scores.size(), batch[b].size());
    EXPECT_EQ(std::memcmp(delivered[b].scores.data(), batch[b].data(),
                          batch[b].size() * sizeof(float)),
              0)
        << "end_day=" << delivered[b].end_day;
  }
}

TEST(ServingPipeline, RejectsWrongWidthRowsWithoutStallingTheStream) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const std::vector<std::vector<float>> batch = BatchScores(study, *service);
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  ServingPipeline serving(service.get(), OptionsFor(study));
  std::vector<float> bad_row(
      static_cast<size_t>(study.network.num_kpis() + 1), 0.0f);
  const int hours = study.network.num_hours();
  const int calendar_hours = study.network.calendar_matrix.rows();
  for (int j = 0; j < hours; ++j) {
    if (j == hours / 2) {
      EXPECT_FALSE(serving.Push(0, j, bad_row));
      // Hours at and past the calendar's end are taken, then refused on
      // the worker before the ingestor can gap-fill up to them.
      for (int hour : {calendar_hours, calendar_hours + 100}) {
        EXPECT_TRUE(serving.Push(0, hour, study.network.kpis.Slice(0, j),
                                 study.network.kpis.dim2()));
      }
    }
    for (int i = 0; i < study.num_sectors(); ++i) {
      ASSERT_TRUE(serving.Push(i, j, study.network.kpis.Slice(i, j),
                               study.network.kpis.dim2()));
    }
  }
  serving.Finish();
  EXPECT_FALSE(serving.Push(0, 1, study.network.kpis.Slice(0, 1),
                            study.network.kpis.dim2()));
  const uint64_t total_rows =
      static_cast<uint64_t>(study.num_sectors() * hours);
  EXPECT_EQ(context.metrics().counter("stream/rows_offered").Total(),
            total_rows + 3);
  EXPECT_EQ(context.metrics().counter("stream/rows_rejected").Total(), 3u);
  EXPECT_EQ(context.metrics().counter("stream/rows_accepted").Total(),
            total_rows);
  ExpectBitwiseEqualToBatch(serving.TakePredictions(), batch,
                            service->bundle().window_days,
                            "rejected rows mid-stream");
}

TEST(ServingPipeline, StageAccountingLandsInObsSnapshot) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  std::vector<StageStats> stages;
  std::vector<StreamingPrediction> served =
      RunPipelineServe(study, service.get(), OptionsFor(study), &stages);
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0].name, "ingest");
  EXPECT_EQ(stages[1].name, "features");
  EXPECT_EQ(stages[2].name, "predict");
  EXPECT_EQ(stages[3].name, "monitor");
  const uint64_t batches = static_cast<uint64_t>(served.size());
  for (const StageStats& stage : stages) {
    EXPECT_GT(stage.items_in, 0u) << "stage " << stage.name;
    EXPECT_GT(stage.busy_seconds, 0.0) << "stage " << stage.name;
    // The cached-handle per-phase counters mirror the phase's own books.
    EXPECT_EQ(context.metrics()
                  .counter("pipeline/" + stage.name + "_items")
                  .Total(),
              stage.items_in)
        << "stage " << stage.name;
  }
  // Every ordered row the ingest phase released was consumed by
  // features; predict scored every batch; monitor took every batch and
  // matured label day features handed on.
  EXPECT_EQ(stages[1].items_in, stages[0].items_out);
  EXPECT_EQ(stages[2].items_in, batches);
  EXPECT_EQ(stages[2].items_out, batches);
  EXPECT_EQ(stages[3].items_in, stages[1].items_out);
  // Only ingest has a queue.
  EXPECT_GT(stages[0].input.pushed, 0u);
  for (size_t k = 1; k < stages.size(); ++k) {
    EXPECT_EQ(stages[k].input.capacity, 0) << "stage " << stages[k].name;
  }
  // Everything served matured in-stream except the final horizon days.
  const obs::Snapshot snapshot = obs::TakeSnapshot(context);
  bool found_latency = false;
  for (const auto& histogram : snapshot.histograms) {
    if (histogram.name == "pipeline/predict_latency_seconds") {
      found_latency = true;
      EXPECT_GE(histogram.count, batches);
    }
  }
  EXPECT_TRUE(found_latency);
}

TEST(ServingPipeline, FrontierAccessorsAndOutcomeLoopMatchRunnerSemantics) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  ServingPipeline serving(service.get(), OptionsFor(study));
  EXPECT_EQ(serving.next_end_day(), service->bundle().window_days);
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      serving.Push(i, j, study.network.kpis.Slice(i, j),
                   study.network.kpis.dim2());
    }
  }
  serving.Finish();
  EXPECT_TRUE(serving.finished());
  EXPECT_EQ(serving.next_end_day(), study.num_days() + 1);
  // The last horizon's predictions can never mature inside the stream.
  EXPECT_EQ(serving.pending_outcomes(), service->bundle().horizon_days + 1);
  const int n = study.num_sectors();
  const int matured_batches =
      study.num_days() - service->bundle().window_days -
      service->bundle().horizon_days;
  EXPECT_EQ(context.metrics().counter("stream/outcomes_recorded").Total(),
            static_cast<uint64_t>(matured_batches * n));
}

TEST(ServingPipeline, FlushInputServesAQuietFeedsReadyBatch) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const std::vector<std::vector<float>> batch = BatchScores(study, *service);
  const int end_day = service->window_days();
  // Features finalize at week close, so the first end-day becomes
  // servable with the last hour of the week holding its final window
  // hour.
  const int servable_hour =
      ((kHoursPerDay * end_day - 1) / kHoursPerWeek + 1) * kHoursPerWeek - 1;
  ASSERT_LT(servable_hour, study.network.num_hours());
  std::mutex mutex;
  std::condition_variable served_cv;
  std::vector<StreamingPrediction> served;
  ServingPipeline::Options options = OptionsFor(study);
  options.prediction_tee = [&](const StreamingPrediction& prediction) {
    std::lock_guard<std::mutex> lock(mutex);
    served.push_back(prediction);
    served_cv.notify_all();
  };
  ServingPipeline serving(service.get(), options);
  // An in-order feed up to that hour, then the feed goes quiet: one
  // FlushInput and no more rows. The batch must not wait for the next
  // hour's rows.
  for (int j = 0; j <= servable_hour; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      ASSERT_TRUE(serving.Push(i, j, study.network.kpis.Slice(i, j),
                               study.network.kpis.dim2()));
    }
  }
  serving.FlushInput();
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(served_cv.wait_for(lock, std::chrono::seconds(5),
                                   [&] { return !served.empty(); }))
        << "batch " << end_day << " not served after FlushInput";
    EXPECT_EQ(served.front().end_day, end_day);
    ASSERT_EQ(served.front().scores.size(), batch[0].size());
    EXPECT_EQ(std::memcmp(served.front().scores.data(), batch[0].data(),
                          batch[0].size() * sizeof(float)),
              0);
  }
  serving.Finish();
}

/// Threads of this process: one /proc/self/task entry each.
int LiveThreads() {
  int threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

TEST(ServingPipeline, RunsOnExactlyOneWorkerThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  // The pool starts its workers on first use: start them all now, so the
  // count below sees only the pipeline's own threads.
  util::ParallelFor(0, 1 << 10, [](int64_t) {});
  const int before = LiveThreads();
  ServingPipeline serving(service.get(), OptionsFor(study));
  EXPECT_EQ(LiveThreads(), before + 1);
  serving.Finish();
  // A joined thread can linger in /proc for a moment after join returns.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (LiveThreads() != before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(LiveThreads(), before);
}

}  // namespace
}  // namespace hotspot
