// google-benchmark microbenchmarks of the streaming layer: sustained
// ingest throughput through KpiStreamIngestor (rows/sec, in-order and
// with watermark-window reordering), per-row incremental feature-update
// latency through IncrementalFeatureEngine, and the full ingest →
// features → ForecastService pipeline. The ingest paths must sustain
// >= 100k rows/sec — record the numbers in EXPERIMENTS.md when they
// change materially.
//
// HOTSPOT_MICRO_SMOKE=1 switches to a seconds-scale correctness smoke
// (the ctest registration, label `stream`): streams a small trace under a
// live obs::PipelineContext, cross-checks every stream/ counter against
// the ground truth of the run, and reports the measured ingest rate.
// With HOTSPOT_OBS_JSON=<path> either mode exports the metrics snapshot.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/forecast_service.h"
#include "core/study.h"
#include "pipeline/serving_pipeline.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "simnet/calendar.h"
#include "simnet/generator.h"
#include "stream/incremental_features.h"
#include "stream/kpi_stream.h"
#include "tensor/temporal.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace hotspot::bench {
namespace {

constexpr int kKpis = 21;

/// A pre-generated hour-major row burst: the transport-side cost is off
/// the clock, only Push/Consume is measured.
struct Trace {
  int sectors;
  int hours;
  Tensor3<float> rows;  ///< sectors x hours x kKpis

  Trace(int sectors, int hours, uint64_t seed)
      : sectors(sectors), hours(hours), rows(sectors, hours, kKpis) {
    Rng rng(seed);
    for (float& v : rows.data()) {
      v = static_cast<float>(std::fabs(rng.Gaussian()));
    }
  }
  int64_t num_rows() const {
    return static_cast<int64_t>(sectors) * hours;
  }
};

Trace& IngestTrace() {
  static Trace* trace = new Trace(200, 4 * kHoursPerWeek, 7);
  return *trace;
}

void BM_IngestInOrder(benchmark::State& state) {
  Trace& trace = IngestTrace();
  stream::IngestorConfig config;
  config.num_sectors = trace.sectors;
  config.num_kpis = kKpis;
  int64_t sunk = 0;
  for (auto _ : state) {
    stream::KpiStreamIngestor ingestor(
        config, [&](int, int, const float*, int) { ++sunk; });
    for (int j = 0; j < trace.hours; ++j) {
      for (int i = 0; i < trace.sectors; ++i) {
        ingestor.Push(i, j, trace.rows.Slice(i, j), kKpis);
      }
    }
    ingestor.Flush();
    benchmark::DoNotOptimize(sunk);
  }
  state.SetItemsProcessed(state.iterations() * trace.num_rows());
}
BENCHMARK(BM_IngestInOrder);

// Same burst, but each sector's 6-hour blocks arrive reversed — every row
// takes the buffered (reordering) path instead of the in-order fast path.
void BM_IngestReordered(benchmark::State& state) {
  Trace& trace = IngestTrace();
  stream::IngestorConfig config;
  config.num_sectors = trace.sectors;
  config.num_kpis = kKpis;
  int64_t sunk = 0;
  for (auto _ : state) {
    stream::KpiStreamIngestor ingestor(
        config, [&](int, int, const float*, int) { ++sunk; });
    for (int block = 0; block < trace.hours / 6; ++block) {
      for (int h = 6 * block + 5; h >= 6 * block; --h) {
        for (int i = 0; i < trace.sectors; ++i) {
          ingestor.Push(i, h, trace.rows.Slice(i, h), kKpis);
        }
      }
    }
    ingestor.Flush();
    benchmark::DoNotOptimize(sunk);
  }
  state.SetItemsProcessed(state.iterations() * trace.num_rows());
}
BENCHMARK(BM_IngestReordered);

// Per-row incremental feature update: Eq. 1 scoring + ring bookkeeping
// every hour, day/week integrations amortized at their closes. items/sec
// inverts to the per-row latency.
void BM_FeatureUpdateRow(benchmark::State& state) {
  Trace& trace = IngestTrace();
  simnet::StudyCalendar calendar =
      simnet::StudyCalendar::Paper(trace.hours / kHoursPerWeek);
  Matrix<float> calendar_matrix = calendar.BuildCalendarMatrix();
  ScoreConfig score;
  for (int k = 0; k < kKpis; ++k) {
    score.indicators.push_back({1.0, 1.0, true});
  }
  stream::FeatureEngineConfig config;
  config.num_sectors = trace.sectors;
  config.num_kpis = kKpis;
  config.calendar = &calendar_matrix;
  config.score = score;
  config.history_weeks = trace.hours / kHoursPerWeek;
  for (auto _ : state) {
    stream::IncrementalFeatureEngine engine(config);
    for (int j = 0; j < trace.hours; ++j) {
      for (int i = 0; i < trace.sectors; ++i) {
        engine.Consume(i, j, trace.rows.Slice(i, j), kKpis);
      }
    }
    benchmark::DoNotOptimize(engine.min_finalized_hours());
  }
  state.SetItemsProcessed(state.iterations() * trace.num_rows());
}
BENCHMARK(BM_FeatureUpdateRow);

/// The end-to-end fixture: a trained service over a small synthetic
/// study, streamed through the staged ServingPipeline.
struct ServeFixture {
  Study study;
  std::unique_ptr<ForecastService> service;

  ServeFixture() {
    simnet::GeneratorConfig generator;
    generator.topology.target_sectors = 60;
    generator.topology.num_cities = 1;
    generator.weeks = 9;
    generator.seed = 11;
    study = BuildStudy(StudyInput(generator), StudyOptions{});
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
    service = std::make_unique<ForecastService>(std::move(bundle));
  }
};

ServeFixture& Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

int64_t StreamOnce(ServeFixture& fixture, int64_t* predictions) {
  pipeline::ServingPipeline::Options options;
  options.num_sectors = fixture.study.num_sectors();
  options.num_kpis = fixture.study.network.num_kpis();
  options.calendar = &fixture.study.network.calendar_matrix;
  options.score = fixture.study.score_config;
  options.history_weeks = fixture.study.num_weeks() + 1;
  pipeline::ServingPipeline serving(fixture.service.get(), options);
  const Tensor3<float>& kpis = fixture.study.network.kpis;
  int64_t rows = 0;
  for (int j = 0; j < kpis.dim1(); ++j) {
    for (int i = 0; i < kpis.dim0(); ++i) {
      serving.Push(i, j, kpis.Slice(i, j), kpis.dim2());
      ++rows;
    }
  }
  serving.Finish();
  for (const StreamingPrediction& p : serving.TakePredictions()) {
    *predictions += static_cast<int64_t>(p.scores.size());
  }
  return rows;
}

void BM_StreamToServe(benchmark::State& state) {
  ServeFixture& fixture = Fixture();
  int64_t rows = 0, predictions = 0;
  for (auto _ : state) {
    rows += StreamOnce(fixture, &predictions);
    benchmark::DoNotOptimize(predictions);
  }
  state.SetItemsProcessed(rows);
  state.counters["predictions"] =
      benchmark::Counter(static_cast<double>(predictions),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StreamToServe);

/// Seconds-scale smoke: correctness of the counters plus a throughput
/// report, run under a live context (the instrumented hot path).
int Smoke() {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  Trace trace(50, 2 * kHoursPerWeek, 13);

  int64_t sunk = 0;
  stream::IngestorConfig config;
  config.num_sectors = trace.sectors;
  config.num_kpis = kKpis;
  stream::KpiStreamIngestor ingestor(
      config, [&](int, int, const float*, int) { ++sunk; });
  Stopwatch watch;
  for (int j = 0; j < trace.hours; ++j) {
    for (int i = 0; i < trace.sectors; ++i) {
      ingestor.Push(i, j, trace.rows.Slice(i, j), kKpis);
    }
  }
  ingestor.Flush();
  const double seconds = watch.ElapsedSeconds();
  const double rate = static_cast<double>(trace.num_rows()) / seconds;
  std::printf("ingest: %lld rows in %.3fs (%.0f rows/sec)\n",
              static_cast<long long>(trace.num_rows()), seconds, rate);

  int failures = 0;
  auto expect_counter = [&](const char* name, uint64_t expected) {
    const uint64_t actual = context.metrics().counter(name).Total();
    if (actual != expected) {
      std::fprintf(stderr, "FAIL: %s = %llu, expected %llu\n", name,
                   static_cast<unsigned long long>(actual),
                   static_cast<unsigned long long>(expected));
      ++failures;
    }
  };
  const uint64_t rows = static_cast<uint64_t>(trace.num_rows());
  expect_counter("stream/rows_offered", rows);
  expect_counter("stream/rows_accepted", rows);
  expect_counter("stream/rows_late_dropped", 0);
  expect_counter("stream/rows_duplicate_dropped", 0);
  expect_counter("stream/rows_gap_filled", 0);
  if (static_cast<uint64_t>(sunk) != rows) {
    std::fprintf(stderr, "FAIL: sink saw %lld of %llu rows\n",
                 static_cast<long long>(sunk),
                 static_cast<unsigned long long>(rows));
    ++failures;
  }

  // End-to-end leg: counters must tie out with the served batches.
  ServeFixture& fixture = Fixture();
  int64_t predictions = 0;
  const int64_t served_rows = StreamOnce(fixture, &predictions);
  expect_counter("stream/rows_consumed",
                 static_cast<uint64_t>(served_rows));
  expect_counter("stream/predictions",
                 static_cast<uint64_t>(predictions));
  const uint64_t batches =
      context.metrics().counter("stream/prediction_batches").Total();
  if (batches == 0 || predictions == 0) {
    std::fprintf(stderr, "FAIL: streaming serve produced no predictions\n");
    ++failures;
  }
  std::printf("serve: %lld rows -> %llu batches, %lld predictions\n",
              static_cast<long long>(served_rows),
              static_cast<unsigned long long>(batches),
              static_cast<long long>(predictions));

  if (const char* path = std::getenv("HOTSPOT_OBS_JSON")) {
    if (!obs::WriteSnapshotJson(obs::TakeSnapshot(context), path)) {
      std::fprintf(stderr, "FAIL: could not write %s\n", path);
      ++failures;
    } else {
      std::printf("obs snapshot: %s\n", path);
    }
  }
  std::printf("result: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hotspot::bench

int main(int argc, char** argv) {
  if (std::getenv("HOTSPOT_MICRO_SMOKE") != nullptr) {
    return hotspot::bench::Smoke();
  }
  // Benchmark mode: a live context when HOTSPOT_OBS_JSON asks for the
  // snapshot, so the measured path is the instrumented one.
  hotspot::bench::ObsSession session;
  hotspot::obs::PipelineContext::ScopedInstall install(session.context());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
