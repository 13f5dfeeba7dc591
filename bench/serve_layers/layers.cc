#include "layers.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/forecast_service.h"
#include "core/serving_ops.h"
#include "features/raw_features.h"
#include "features/window.h"
#include "measure.h"
#include "ml/flat_tree.h"
#include "obs/pipeline_context.h"
#include "obs/trace.h"
#include "stream/incremental_features.h"
#include "stream/kpi_stream.h"
#include "util/stopwatch.h"

namespace hotspot::bench {
namespace {

/// Calls per row span of the isolated replays.
constexpr int kSpanCalls = 4096;

template <typename Fn>
double MedianWallMs(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int k = 0; k < repeats; ++k) {
    const uint64_t start = NowNs();
    fn(k);
    ms.push_back(1e-6 * static_cast<double>(NowNs() - start));
  }
  return Median(ms);
}

/// Single-thread FlatForest::PredictBatch cost per row for one kernel.
double FlatNsPerRow(const ml::FlatForest& forest, const Matrix<float>& rows,
                    ml::FlatKernel kernel) {
  const int n = rows.rows();
  const int repeats = std::max(1, 100000 / n);
  std::vector<double> out(static_cast<size_t>(n));
  const double start = ThreadCpuSeconds();
  for (int k = 0; k < repeats; ++k) {
    forest.PredictBatch(rows.Row(0), n, rows.cols(), out.data(), kernel);
  }
  return 1e9 * (ThreadCpuSeconds() - start) / (static_cast<double>(n) * repeats);
}

}  // namespace

ServingLayers MeasureServingLayers(const Fixture& fixture, const Feed& feed,
                                   const Reference& reference,
                                   TraceLog* trace) {
  ServingLayers layers;
  ScopedSpan root(trace, "isolated", -1, 0);
  const Study& study = fixture.study;
  const int n = fixture.num_sectors();
  const int num_kpis = fixture.num_kpis();
  const int64_t rows = feed.num_rows();
  layers.rows = rows;
  const pipeline::ServingPipeline::Options serving = fixture.ServingOptions();
  stream::IngestorConfig ingest_config;
  ingest_config.num_sectors = n;
  ingest_config.num_kpis = num_kpis;
  ingest_config.watermark_hours = serving.watermark_hours;
  ingest_config.ring_hours = serving.ring_hours;

  // The order the ingestor releases rows in is what the feature engine
  // consumes; capture it in an untimed pass.
  std::vector<int> order_sectors, order_hours;
  order_sectors.reserve(static_cast<size_t>(rows));
  order_hours.reserve(static_cast<size_t>(rows));
  {
    stream::KpiStreamIngestor capture(
        ingest_config, [&](int sector, int hour, const float*, int) {
          order_sectors.push_back(sector);
          order_hours.push_back(hour);
        });
    for (int64_t r = 0; r < rows; ++r) {
      const int sector = feed.sectors[static_cast<size_t>(r)];
      const int hour = feed.hours[static_cast<size_t>(r)];
      capture.Push(sector, hour, fixture.Row(sector, hour), num_kpis);
    }
    capture.Flush();
  }

  int64_t sunk = 0;
  stream::KpiStreamIngestor ingestor(
      ingest_config, [&sunk](int, int, const float*, int) { ++sunk; });
  double ingest_cpu = 0.0;
  for (int64_t begin = 0; begin < rows; begin += kSpanCalls) {
    ScopedSpan span(trace, "stream.ingest", root.index(), begin / kSpanCalls);
    const double start = ProcessCpuSeconds();
    for (int64_t r = begin; r < std::min(rows, begin + kSpanCalls); ++r) {
      const int sector = feed.sectors[static_cast<size_t>(r)];
      const int hour = feed.hours[static_cast<size_t>(r)];
      ingestor.Push(sector, hour, fixture.Row(sector, hour), num_kpis);
    }
    if (begin + kSpanCalls >= rows) ingestor.Flush();
    ingest_cpu += ProcessCpuSeconds() - start;
  }
  layers.ingest_ns_per_row = 1e9 * ingest_cpu / static_cast<double>(rows);

  // Features, then — whenever a week close makes batches servable — window
  // assembly, monitored and unmonitored predict and outcome recording,
  // each timed on its own.
  stream::FeatureEngineConfig feature_config;
  feature_config.num_sectors = n;
  feature_config.num_kpis = num_kpis;
  feature_config.calendar = &study.network.calendar_matrix;
  feature_config.score = study.score_config;
  feature_config.history_weeks = kHistoryWeeks;
  stream::IncrementalFeatureEngine engine(feature_config);
  ForecastService monitored(serialize::CloneBundle(*fixture.bundle));
  ForecastService unmonitored(serialize::CloneBundle(*fixture.bundle));
  unmonitored.DisableMonitoring();
  const int window_hours = 24 * fixture.config.w;
  const int emitted = static_cast<int>(order_sectors.size());
  double features_cpu = 0.0, window_cpu = 0.0, predict_cpu = 0.0;
  double unmonitored_cpu = 0.0, record_cpu = 0.0;
  int recorded = 0;
  int end_day = fixture.config.w;
  for (int begin = 0; begin < emitted; begin += kSpanCalls) {
    {
      ScopedSpan span(trace, "stream.features", root.index(), begin / kSpanCalls);
      const double start = ProcessCpuSeconds();
      for (int r = begin; r < std::min(emitted, begin + kSpanCalls); ++r) {
        const int sector = order_sectors[static_cast<size_t>(r)];
        const int hour = order_hours[static_cast<size_t>(r)];
        engine.Consume(sector, hour, fixture.Row(sector, hour), num_kpis);
      }
      features_cpu += ProcessCpuSeconds() - start;
    }
    while (end_day <= study.num_days() &&
           engine.min_finalized_hours() >= 24 * end_day) {
      Tensor3<float> windows;
      std::vector<float> scores;
      {
        ScopedSpan span(trace, "serving_ops.window", root.index(), end_day);
        const double start = ProcessCpuSeconds();
        windows = AssembleServingWindows(engine, window_hours, end_day);
        window_cpu += ProcessCpuSeconds() - start;
      }
      {
        ScopedSpan span(trace, "serve.predict", root.index(), end_day);
        const double start = ProcessCpuSeconds();
        scores = monitored.Predict(windows);
        predict_cpu += ProcessCpuSeconds() - start;
      }
      {
        ScopedSpan span(trace, "serve.predict_unmonitored", root.index(), end_day);
        const double start = ProcessCpuSeconds();
        unmonitored.Predict(windows);
        unmonitored_cpu += ProcessCpuSeconds() - start;
      }
      const int target_day = end_day + fixture.config.h;
      if (target_day < study.num_days()) {
        const std::vector<float> labels = study.daily_labels.ColVector(target_day);
        ScopedSpan span(trace, "monitor.record", root.index(), end_day);
        const double start = ProcessCpuSeconds();
        monitored.RecordOutcomes(scores, labels);
        record_cpu += ProcessCpuSeconds() - start;
        ++recorded;
      }
      auto expected = reference.find(end_day);
      if (expected == reference.end() || expected->second.size() != scores.size() ||
          std::memcmp(expected->second.data(), scores.data(),
                      scores.size() * sizeof(float)) != 0) {
        ++layers.wrong_batches;
      }
      ++layers.batches;
      ++end_day;
    }
  }
  layers.wrong_batches += static_cast<int64_t>(reference.size()) - layers.batches;
  if (sunk != rows) ++layers.wrong_batches;
  layers.features_ns_per_row = 1e9 * features_cpu / static_cast<double>(rows);
  const double batches = std::max(1, layers.batches);
  layers.window_us_per_batch = 1e6 * window_cpu / batches;
  layers.predict_us_per_batch = 1e6 * predict_cpu / batches;
  layers.monitor_us_per_batch = 1e6 * (predict_cpu - unmonitored_cpu) / batches;
  layers.record_us_per_batch = 1e6 * record_cpu / std::max(1, recorded);

  // Feature extraction and the flat kernels on the day-t rows.
  const features::RawExtractor extractor;
  const int w = fixture.config.w;
  std::vector<Matrix<float>> sector_windows;
  for (int i = 0; i < n; ++i) {
    sector_windows.push_back(
        features::ExtractWindow(study.features, i, fixture.config.t, w));
  }
  const int dim = extractor.OutputDim(w, study.features.num_channels());
  Matrix<float> feature_rows(n, dim);
  {
    ScopedSpan span(trace, "features.extract", root.index(), fixture.config.t);
    const int repeats = std::max(1, 20000 / n);
    std::vector<float> row;
    const double start = ThreadCpuSeconds();
    for (int k = 0; k < repeats; ++k) {
      for (int i = 0; i < n; ++i) {
        extractor.Extract(sector_windows[static_cast<size_t>(i)], &row);
        if (k == 0) std::memcpy(feature_rows.Row(i), row.data(), row.size() * sizeof(float));
      }
    }
    layers.extract_ns_per_sector =
        1e9 * (ThreadCpuSeconds() - start) / (static_cast<double>(n) * repeats);
  }
  const ml::FlatForest& forest = *fixture.bundle->flat;
  layers.flat_trees = forest.num_trees();
  layers.flat_row_bytes = static_cast<int64_t>(dim) * static_cast<int64_t>(sizeof(float));
  {
    ScopedSpan span(trace, "ml.flat.scalar", root.index(), 0);
    layers.flat_scalar_ns_per_row =
        FlatNsPerRow(forest, feature_rows, ml::FlatKernel::kScalar);
  }
  {
    // Falls back to the scalar kernel on a host without AVX2.
    ScopedSpan span(trace, "ml.flat.avx2", root.index(), 0);
    layers.flat_avx2_ns_per_row =
        FlatNsPerRow(forest, feature_rows, ml::FlatKernel::kAvx2);
  }

  {
    ScopedSpan span(trace, "ml.flat.compile", root.index(), 0);
    layers.compile_ms = MedianWallMs(5, [&](int) {
      ml::FlatForest::Compile(*fixture.bundle->classifier);
    });
  }
  {
    ScopedSpan span(trace, "serialize.clone", root.index(), 0);
    layers.clone_s = 1e-3 * MedianWallMs(3, [&](int) {
      serialize::CloneBundle(*fixture.bundle);
    });
  }
  {
    ForecastService idle(serialize::CloneBundle(*fixture.bundle));
    std::vector<std::unique_ptr<serialize::ForecastBundle>> clones;
    for (int k = 0; k < 5; ++k) clones.push_back(serialize::CloneBundle(*fixture.bundle));
    ScopedSpan span(trace, "serve.promote_idle", root.index(), 0);
    layers.promote_idle_ms = MedianWallMs(5, [&](int k) {
      if (!idle.PromoteBundle(std::move(clones[static_cast<size_t>(k)])).ok) {
        ++layers.wrong_batches;
      }
    });
  }

  // The producer loop alone: walk the feed and touch every row, with the
  // per-step clock reads the passes make, but offer nothing.
  {
    ScopedSpan span(trace, "loadgen", root.index(), 0);
    float checksum = 0.0f;
    const double start = ThreadCpuSeconds();
    for (int s = 0; s < feed.num_steps(); ++s) {
      const uint64_t step_start = NowNs();
      const double thread_start = ThreadCpuSeconds();
      for (int r = feed.step_begin[static_cast<size_t>(s)];
           r < feed.step_begin[static_cast<size_t>(s) + 1]; ++r) {
        checksum += fixture.Row(feed.sectors[static_cast<size_t>(r)],
                                feed.hours[static_cast<size_t>(r)])[0];
      }
      checksum += static_cast<float>(ThreadCpuSeconds() - thread_start) +
                  static_cast<float>(NowNs() - step_start);
    }
    layers.loadgen_ns_per_row =
        1e9 * (ThreadCpuSeconds() - start) / static_cast<double>(rows);
    asm volatile("" : : "g"(checksum) : "memory");  // keeps the loop live
  }
  return layers;
}

TrainingLayers MeasureTrainingLayers(const Fixture& fixture, TraceLog* trace) {
  // TrainBundle times its own steps with library spans; a context installed
  // around one real call collects them.
  TrainingLayers layers;
  const Forecaster forecaster =
      fixture.study.MakeForecaster(TargetKind::kBeHotSpot);
  obs::PipelineContext context;
  {
    ScopedSpan span(trace, "train_bundle", -1, fixture.config.t);
    obs::PipelineContext::ScopedInstall install(&context);
    Stopwatch watch;
    forecaster.TrainBundle(fixture.config);
    layers.train_s = watch.ElapsedSeconds();
  }
  const auto is = [](const std::string& path, const std::string& name) {
    return path.size() >= name.size() &&
           path.compare(path.size() - name.size(), name.size(), name) == 0 &&
           (path.size() == name.size() || path[path.size() - name.size() - 1] == '/');
  };
  for (const obs::TraceCollector::SpanStats& stats : context.trace().Aggregate()) {
    if (is(stats.path, "forecast/build_training_set")) layers.extract_s += stats.total_seconds;
    if (is(stats.path, "forecast/train")) layers.fit_s += stats.total_seconds;
  }
  return layers;
}

}  // namespace hotspot::bench
