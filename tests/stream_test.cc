// The streaming subsystem's contract tests: ingestion ordering policy
// (in-watermark reorder, beyond-watermark drop, duplicates, gap fill),
// the batch/streaming bitwise feature-equivalence guarantee over a
// multi-week synthetic trace, the in-place serving windows of the
// mirrored history ring, and end-to-end streaming serving parity with
// ForecastService::PredictAtDay at several thread counts.
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "core/labels.h"
#include "monitor/health.h"
#include "core/score.h"
#include "core/study.h"
#include "features/feature_tensor.h"
#include "obs/pipeline_context.h"
#include "pipeline/serving_pipeline.h"
#include "thread_matrix.h"
#include "simnet/calendar.h"
#include "stream/incremental_features.h"
#include "stream/kpi_stream.h"
#include "tensor/temporal.h"

namespace hotspot {
namespace {

using stream::FeatureEngineConfig;
using stream::IncrementalFeatureEngine;
using stream::IngestorConfig;
using stream::KpiStreamIngestor;
using stream::PushResult;

simnet::GeneratorConfig SmallConfig() {
  simnet::GeneratorConfig config;
  config.topology.target_sectors = 60;
  config.topology.num_cities = 1;
  config.weeks = 9;
  config.seed = 77;
  return config;
}

/// The shared study: complete (forward-fill imputed) KPIs, so the stream
/// sees exactly the tensor the batch features were built from.
const Study& SharedStudy() {
  static const Study* study = new Study(BuildStudy(StudyInput(SmallConfig())));
  return *study;
}

FeatureEngineConfig EngineConfigFor(const Study& study, int history_weeks) {
  FeatureEngineConfig config;
  config.num_sectors = study.num_sectors();
  config.num_kpis = study.network.num_kpis();
  config.calendar = &study.network.calendar_matrix;
  config.score = study.score_config;
  config.history_weeks = history_weeks;
  return config;
}

/// Streams the study's KPI tensor in order through ingestor + engine and
/// returns the emitted feature rows as a tensor shaped like the batch one.
Tensor3<float> StreamFeatures(const Study& study) {
  const int n = study.num_sectors();
  const int hours = study.network.num_hours();
  IncrementalFeatureEngine engine(
      EngineConfigFor(study, study.num_weeks() + 1));
  IngestorConfig ingest;
  ingest.num_sectors = n;
  ingest.num_kpis = study.network.num_kpis();
  KpiStreamIngestor ingestor(ingest, engine.IngestorSink());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < hours; ++j) {
      PushResult result =
          ingestor.Push(i, j, study.network.kpis.Slice(i, j),
                        study.network.kpis.dim2());
      EXPECT_EQ(result, PushResult::kAccepted);
    }
  }
  // The history ring holds the whole trace: copy every finalized row out.
  Tensor3<float> streamed(n, hours, engine.channels(),
                          std::nanf("unwritten"));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(engine.finalized_hours(i), hours) << "sector " << i;
    engine.CopyFeatureRows(i, 0, hours, streamed.Slice(i, 0));
  }
  return streamed;
}

TEST(IncrementalFeatures, BitwiseEqualToBatchTensorOverMultiWeekTrace) {
  const Study& study = SharedStudy();
  Tensor3<float> streamed = StreamFeatures(study);
  const Tensor3<float>& batch = study.features.tensor();
  ASSERT_EQ(streamed.size(), batch.size());
  // Bitwise, not approximate: the incremental engine replays the batch
  // loops' arithmetic, so even NaN payloads must match.
  EXPECT_EQ(std::memcmp(streamed.data().data(), batch.data().data(),
                        batch.size() * sizeof(float)),
            0);
}

TEST(IncrementalFeatures, ServingWindowsHoldTheRowsCopyFeatureRowsCopies) {
  // Two weeks of history, so the ring wraps four times over the 9-week
  // trace and windows straddle its end into the mirror. Every sector's
  // ring shares one allocation: a read past one sector's mirror lands in
  // the next sector's ring, invisible to ASan, so every row of every
  // servable window is compared.
  const Study& study = SharedStudy();
  const int n = study.num_sectors();
  for (int window_days : {2, 3, 7}) {
    FeatureEngineConfig config = EngineConfigFor(study, 2);
    config.window_hours = kHoursPerDay * window_days;
    IncrementalFeatureEngine engine(config);
    const size_t window_floats =
        static_cast<size_t>(config.window_hours) * engine.channels();
    std::vector<float> copied(window_floats);
    int straddling = 0;
    for (int j = 0; j < study.network.num_hours(); ++j) {
      for (int i = 0; i < n; ++i) {
        engine.Consume(i, j, study.network.kpis.Slice(i, j),
                       study.network.kpis.dim2());
      }
      if ((j + 1) % kHoursPerWeek != 0) continue;
      const int finalized = engine.min_finalized_hours();
      for (int end_day = window_days; kHoursPerDay * end_day <= finalized;
           ++end_day) {
        const int first_hour = kHoursPerDay * end_day - config.window_hours;
        if (first_hour < finalized - engine.history_hours()) continue;
        const WindowBatch windows = engine.ServingWindows(end_day);
        ASSERT_EQ(windows.count, n);
        ASSERT_EQ(windows.hours, config.window_hours);
        ASSERT_EQ(windows.channels, engine.channels());
        for (int i = 0; i < n; ++i) {
          engine.CopyFeatureRows(i, first_hour, config.window_hours,
                                 copied.data());
          ASSERT_EQ(std::memcmp(windows.Window(i), copied.data(),
                                window_floats * sizeof(float)),
                    0)
              << "window_days=" << window_days << " end_day=" << end_day
              << " sector=" << i;
        }
        if (first_hour % engine.history_hours() + config.window_hours >
            engine.history_hours()) {
          ++straddling;
        }
      }
    }
    EXPECT_GT(straddling, 0) << "window_days=" << window_days;
  }
}

TEST(IncrementalFeatures, RollingStateTracksRunsAndPercentiles) {
  const Study& study = SharedStudy();
  IncrementalFeatureEngine engine(
      EngineConfigFor(study, study.num_weeks() + 1));
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    engine.Consume(0, j, study.network.kpis.Slice(0, j),
                   study.network.kpis.dim2());
  }
  stream::SectorStreamState state = engine.State(0);
  EXPECT_EQ(state.consumed_hours, hours);
  EXPECT_EQ(state.closed_days, hours / kHoursPerDay);
  EXPECT_EQ(state.finalized_hours, hours);
  // The run length matches a trailing scan of the study's daily labels.
  int expected_run = 0;
  for (int day = study.num_days() - 1; day >= 0; --day) {
    if (study.daily_labels.At(0, day) == 0.0f) break;
    ++expected_run;
  }
  EXPECT_EQ(state.hot_day_run, expected_run);
  EXPECT_TRUE(!std::isnan(state.day_score_p50));
  EXPECT_GE(state.day_score_p95, state.day_score_p50);
}

/// A tiny deterministic trace for the ordering-policy tests: 1 sector,
/// 2 KPIs, values a simple function of the hour.
struct TinyTrace {
  static constexpr int kKpis = 2;
  static std::vector<float> Row(int hour) {
    return {static_cast<float>(hour % 7),
            static_cast<float>((hour * 3) % 11)};
  }
};

struct CapturedRow {
  int sector;
  int hour;
  std::vector<float> values;
};

TEST(KpiStreamIngestor, InWatermarkReorderIsLossless) {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  std::vector<CapturedRow> rows;
  IngestorConfig config;
  config.num_sectors = 1;
  config.num_kpis = TinyTrace::kKpis;
  config.watermark_hours = 24;
  KpiStreamIngestor ingestor(config, [&](int sector, int hour,
                                         const float* values, int num_kpis) {
    rows.push_back({sector, hour,
                    std::vector<float>(values, values + num_kpis)});
  });
  // Deliver each 6-hour block reversed — out of order, but well inside
  // the 24 h watermark.
  const int kHours = 48;
  for (int block = 0; block < kHours / 6; ++block) {
    for (int h = 6 * block + 5; h >= 6 * block; --h) {
      EXPECT_EQ(ingestor.Push(0, h, TinyTrace::Row(h)),
                PushResult::kAccepted);
    }
  }
  ingestor.Flush();
  ASSERT_EQ(static_cast<int>(rows.size()), kHours);
  for (int h = 0; h < kHours; ++h) {
    EXPECT_EQ(rows[static_cast<size_t>(h)].hour, h);
    EXPECT_EQ(rows[static_cast<size_t>(h)].values, TinyTrace::Row(h));
  }
  EXPECT_GT(context.metrics().counter("stream/rows_reordered").Total(), 0u);
  EXPECT_EQ(context.metrics().counter("stream/rows_late_dropped").Total(),
            0u);
  EXPECT_EQ(context.metrics().counter("stream/rows_gap_filled").Total(), 0u);
  EXPECT_EQ(context.metrics().counter("stream/rows_accepted").Total(),
            static_cast<uint64_t>(kHours));
}

TEST(KpiStreamIngestor, BeyondWatermarkRowIsDroppedAndCounted) {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  std::vector<CapturedRow> rows;
  IngestorConfig config;
  config.num_sectors = 1;
  config.num_kpis = TinyTrace::kKpis;
  config.watermark_hours = 6;
  config.ring_hours = 12;
  KpiStreamIngestor ingestor(config, [&](int sector, int hour,
                                         const float* values, int num_kpis) {
    rows.push_back({sector, hour,
                    std::vector<float>(values, values + num_kpis)});
  });
  // Hour 5 never arrives on time; the stream runs on far enough that the
  // watermark passes it (gap-filled as all-NaN), then it shows up late.
  for (int h = 0; h < 20; ++h) {
    if (h == 5) continue;
    EXPECT_EQ(ingestor.Push(0, h, TinyTrace::Row(h)),
              PushResult::kAccepted);
  }
  EXPECT_EQ(ingestor.Push(0, 5, TinyTrace::Row(5)), PushResult::kLate);
  ingestor.Flush();
  ASSERT_EQ(static_cast<int>(rows.size()), 20);
  for (int h = 0; h < 20; ++h) {
    EXPECT_EQ(rows[static_cast<size_t>(h)].hour, h);
    if (h == 5) {
      for (float v : rows[5].values) EXPECT_TRUE(std::isnan(v));
    } else {
      EXPECT_EQ(rows[static_cast<size_t>(h)].values, TinyTrace::Row(h));
    }
  }
  EXPECT_EQ(context.metrics().counter("stream/rows_late_dropped").Total(),
            1u);
  EXPECT_EQ(context.metrics().counter("stream/rows_gap_filled").Total(), 1u);
}

TEST(KpiStreamIngestor, DuplicateRowFirstWinsAndIsCounted) {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  std::vector<CapturedRow> rows;
  IngestorConfig config;
  config.num_sectors = 1;
  config.num_kpis = TinyTrace::kKpis;
  config.watermark_hours = 24;
  KpiStreamIngestor ingestor(config, [&](int sector, int hour,
                                         const float* values, int num_kpis) {
    rows.push_back({sector, hour,
                    std::vector<float>(values, values + num_kpis)});
  });
  // Hour 3 arrives while hour 2 is still outstanding (so it is buffered,
  // not yet flushed), then arrives again with different values.
  EXPECT_EQ(ingestor.Push(0, 0, TinyTrace::Row(0)), PushResult::kAccepted);
  EXPECT_EQ(ingestor.Push(0, 1, TinyTrace::Row(1)), PushResult::kAccepted);
  EXPECT_EQ(ingestor.Push(0, 3, TinyTrace::Row(3)), PushResult::kAccepted);
  std::vector<float> imposter = {99.0f, 99.0f};
  EXPECT_EQ(ingestor.Push(0, 3, imposter), PushResult::kDuplicate);
  EXPECT_EQ(ingestor.Push(0, 2, TinyTrace::Row(2)), PushResult::kAccepted);
  // A duplicate of an already-flushed hour is late by definition.
  EXPECT_EQ(ingestor.Push(0, 0, TinyTrace::Row(0)), PushResult::kLate);
  ASSERT_EQ(static_cast<int>(rows.size()), 4);
  EXPECT_EQ(rows[3].values, TinyTrace::Row(3));  // first row won
  EXPECT_EQ(
      context.metrics().counter("stream/rows_duplicate_dropped").Total(),
      1u);
  EXPECT_EQ(context.metrics().counter("stream/rows_late_dropped").Total(),
            1u);
}

TEST(KpiStreamIngestor, MalformedRowsAreRejectedNotFatal) {
  IngestorConfig config;
  config.num_sectors = 2;
  config.num_kpis = TinyTrace::kKpis;
  int delivered = 0;
  KpiStreamIngestor ingestor(
      config, [&](int, int, const float*, int) { ++delivered; });
  std::vector<float> row = TinyTrace::Row(0);
  EXPECT_EQ(ingestor.Push(5, 0, row), PushResult::kRejected);
  EXPECT_EQ(ingestor.Push(-1, 0, row), PushResult::kRejected);
  EXPECT_EQ(ingestor.Push(0, -2, row), PushResult::kRejected);
  std::vector<float> short_row = {1.0f};
  EXPECT_EQ(ingestor.Push(0, 0, short_row), PushResult::kRejected);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ingestor.Push(0, 0, row), PushResult::kAccepted);
  EXPECT_EQ(delivered, 1);
}

TEST(IncrementalFeatures, GapFilledHoursMatchBatchOnHoleyTensor) {
  // An hour the watermark declared missing must flow through scores,
  // labels and features exactly like a batch tensor with that hour NaN.
  const int kWeeks = 2;
  simnet::StudyCalendar calendar = simnet::StudyCalendar::Paper(kWeeks);
  Matrix<float> calendar_matrix = calendar.BuildCalendarMatrix();
  const int hours = calendar.hours();
  ScoreConfig score;
  score.indicators = {{1.0, 3.0, true}, {2.0, 4.0, false}};
  score.hot_threshold = 0.5;
  Tensor3<float> kpis(1, hours, 2);
  for (int j = 0; j < hours; ++j) {
    kpis.At(0, j, 0) = TinyTrace::Row(j)[0];
    kpis.At(0, j, 1) = TinyTrace::Row(j)[1];
  }
  const int kHole = 29;
  kpis.At(0, kHole, 0) = MissingValue();
  kpis.At(0, kHole, 1) = MissingValue();

  ScoreSet scores = ComputeScores(kpis, score);
  Matrix<float> daily_labels =
      HotSpotLabels(scores.daily, score.hot_threshold);
  features::FeatureTensor batch = features::FeatureTensor::Build(
      kpis, calendar_matrix, scores.hourly, scores.daily, scores.weekly,
      daily_labels);

  FeatureEngineConfig engine_config;
  engine_config.num_sectors = 1;
  engine_config.num_kpis = 2;
  engine_config.calendar = &calendar_matrix;
  engine_config.score = score;
  engine_config.history_weeks = kWeeks + 1;
  IncrementalFeatureEngine engine(engine_config);
  IngestorConfig ingest;
  ingest.num_sectors = 1;
  ingest.num_kpis = 2;
  ingest.watermark_hours = 6;
  ingest.ring_hours = 12;
  KpiStreamIngestor ingestor(ingest, engine.IngestorSink());
  for (int j = 0; j < hours; ++j) {
    if (j == kHole) continue;  // never arrives; the watermark fills it
    ASSERT_EQ(ingestor.Push(0, j, kpis.Slice(0, j), 2),
              PushResult::kAccepted);
  }
  ingestor.Flush();
  ASSERT_EQ(engine.finalized_hours(0), hours);
  Tensor3<float> streamed(1, hours, engine.channels());
  engine.CopyFeatureRows(0, 0, hours, streamed.Slice(0, 0));
  EXPECT_EQ(std::memcmp(streamed.data().data(),
                        batch.tensor().data().data(),
                        batch.tensor().size() * sizeof(float)),
            0);
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

pipeline::ServingPipeline::Options ServeOptionsFor(const Study& study) {
  pipeline::ServingPipeline::Options options;
  options.num_sectors = study.num_sectors();
  options.num_kpis = study.network.num_kpis();
  options.calendar = &study.network.calendar_matrix;
  options.score = study.score_config;
  options.history_weeks = study.num_weeks() + 1;
  return options;
}

/// Streams the whole study hour-major (all sectors advance together, as
/// live feeds do) through a ServingPipeline and returns every served
/// prediction.
std::vector<StreamingPrediction> RunStreamingServe(
    const Study& study, ForecastService* service) {
  pipeline::ServingPipeline serving(service, ServeOptionsFor(study));
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      serving.Push(i, j, study.network.kpis.Slice(i, j),
                   study.network.kpis.dim2());
    }
  }
  serving.Finish();
  return serving.TakePredictions();
}

TEST(StreamServe, PredictionsBitwiseEqualBatchServiceAcrossThreads) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const int w = service->bundle().window_days;
  const int num_days = study.num_days();

  std::vector<std::vector<float>> batch_scores;
  for (int end_day = w; end_day <= num_days; ++end_day) {
    batch_scores.push_back(service->PredictAtDay(study.features, end_day));
  }

  testing_util::ForEachThreadCount([&](const std::string& threads) {
    std::vector<StreamingPrediction> served =
        RunStreamingServe(study, service.get());
    ASSERT_EQ(static_cast<int>(served.size()), num_days - w + 1)
        << "threads=" << threads;
    for (size_t b = 0; b < served.size(); ++b) {
      EXPECT_EQ(served[b].end_day, w + static_cast<int>(b));
      ASSERT_EQ(served[b].scores.size(), batch_scores[b].size());
      EXPECT_EQ(std::memcmp(served[b].scores.data(),
                            batch_scores[b].data(),
                            batch_scores[b].size() * sizeof(float)),
                0)
          << "threads=" << threads << " end_day=" << served[b].end_day;
    }
  });
}

TEST(StreamServe, MaturedOutcomesFeedQualityMonitor) {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  ASSERT_TRUE(service->monitoring_enabled());
  pipeline::ServingPipeline serving(service.get(), ServeOptionsFor(study));
  for (int i = 0; i < study.num_sectors(); ++i) {
    for (int j = 0; j < study.network.num_hours(); ++j) {
      serving.Push(i, j, study.network.kpis.Slice(i, j),
                   study.network.kpis.dim2());
    }
  }
  serving.Finish();
  ASSERT_FALSE(serving.TakePredictions().empty());
  // Every prediction whose target day the stream has already closed fed
  // the quality monitor; only the frontier ones are still waiting.
  const int horizon = service->bundle().horizon_days;
  EXPECT_EQ(serving.pending_outcomes(), horizon + 1);
  monitor::HealthReport health = service->Health();
  EXPECT_TRUE(health.monitoring_enabled);
  EXPECT_GT(health.quality.labels_total, 0u);
  EXPECT_GT(
      context.metrics().counter("stream/outcomes_recorded").Total(), 0u);
  EXPECT_GT(
      context.metrics().counter("stream/prediction_batches").Total(), 0u);
}

}  // namespace
}  // namespace hotspot
