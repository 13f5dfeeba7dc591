// google-benchmark microbenchmarks of the live-telemetry layer: flight
// recorder Record() throughput (single- and multi-writer — the cost every
// instrumented hot path pays), TelemetryExporter frame sampling against a
// populated registry, and the NDJSON / Prometheus render cost per frame.
//
// HOTSPOT_MICRO_SMOKE=1 switches to a seconds-scale correctness smoke
// (the ctest registration, label `telemetry`): streams a small study
// through the staged ServingPipeline with a live background exporter,
// then cross-checks the exporter's final frame against direct reads of
// every registered instrument — the two must agree exactly once the
// pipeline has quiesced — and lints every registered metric name against
// the exporter charset.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/forecast_service.h"
#include "core/study.h"
#include "obs/flight_recorder.h"
#include "obs/pipeline_context.h"
#include "obs/telemetry.h"
#include "pipeline/serving_pipeline.h"
#include "serialize/bundle.h"
#include "simnet/generator.h"

namespace hotspot {
namespace {

using obs::FlightEventKind;
using obs::FlightRecorder;
using obs::PipelineContext;
using obs::TelemetryExporter;
using obs::TelemetryOptions;
using pipeline::ServingPipeline;

// ---------------------------------------------------------------------------
// Microbenchmarks

void BM_FlightRecord(benchmark::State& state) {
  static FlightRecorder* recorder = new FlightRecorder(1 << 12);
  int64_t k = 0;
  for (auto _ : state) {
    recorder->Record(FlightEventKind::kCustom, k, k * 2, k * 3, 0.5);
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecord)->Threads(1)->Threads(4)->Threads(8);

void BM_FlightSnapshot(benchmark::State& state) {
  FlightRecorder recorder(1 << 12);
  for (int k = 0; k < (1 << 12); ++k) {
    recorder.Record(FlightEventKind::kCustom, k);
  }
  for (auto _ : state) {
    std::vector<obs::FlightEventRecord> events = recorder.Snapshot();
    benchmark::DoNotOptimize(events.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(recorder.capacity()));
}
BENCHMARK(BM_FlightSnapshot);

/// A registry shaped like a live serving run: a few dozen counters,
/// gauges and latency histograms with observations to quantile over.
PipelineContext& PopulatedContext() {
  static PipelineContext* context = [] {
    auto* ctx = new PipelineContext();
    for (int i = 0; i < 40; ++i) {
      ctx->metrics()
          .counter("bench/counter" + std::to_string(i))
          .Add(static_cast<uint64_t>(1000 + i));
      ctx->metrics().gauge("bench/gauge" + std::to_string(i)).Set(i * 0.5);
    }
    for (int i = 0; i < 12; ++i) {
      obs::Histogram& histogram = ctx->metrics().histogram(
          "bench/hist" + std::to_string(i), obs::DefaultLatencySeconds());
      for (int k = 0; k < 512; ++k) {
        histogram.ObserveWithExemplar(0.0001 * (k % 300), k);
      }
    }
    ctx->flight().Record(FlightEventKind::kCustom, 1);
    return ctx;
  }();
  return *context;
}

void BM_TelemetrySample(benchmark::State& state) {
  PipelineContext& context = PopulatedContext();
  TelemetryOptions options;
  options.period = std::chrono::hours(1);  // background thread stays idle
  options.final_frame_on_stop = false;
  TelemetryExporter exporter(&context, options);
  for (auto _ : state) {
    obs::Snapshot frame = exporter.SampleNow();
    benchmark::DoNotOptimize(frame.counters.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetrySample);

void BM_FrameRenderJson(benchmark::State& state) {
  PipelineContext& context = PopulatedContext();
  TelemetryOptions options;
  options.period = std::chrono::hours(1);
  options.final_frame_on_stop = false;
  TelemetryExporter exporter(&context, options);
  const obs::Snapshot frame = exporter.SampleNow();
  for (auto _ : state) {
    std::string line = obs::FrameToJsonLine(frame);
    benchmark::DoNotOptimize(line.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameRenderJson);

void BM_FrameRenderPrometheus(benchmark::State& state) {
  PipelineContext& context = PopulatedContext();
  TelemetryOptions options;
  options.period = std::chrono::hours(1);
  options.final_frame_on_stop = false;
  TelemetryExporter exporter(&context, options);
  const obs::Snapshot frame = exporter.SampleNow();
  for (auto _ : state) {
    std::string text = obs::FrameToPrometheusText(frame);
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameRenderPrometheus);

// ---------------------------------------------------------------------------
// Smoke

/// Seconds-scale smoke: a real pipeline workload with a live background
/// exporter; at quiesce the exporter's frame and direct reads of the
/// registry's instruments must agree exactly, and every registered name
/// must pass the charset lint.
int Smoke() {
  PipelineContext context;
  PipelineContext::ScopedInstall install(&context);

  simnet::GeneratorConfig generator;
  generator.topology.target_sectors = 60;
  generator.topology.num_cities = 1;
  generator.weeks = 9;
  generator.seed = 11;
  Study study = BuildStudy(StudyInput(generator), StudyOptions{});
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
  ForecastService service(std::move(bundle));

  TelemetryOptions options;
  options.period = std::chrono::milliseconds(5);
  TelemetryExporter exporter(&context, options);

  size_t batches = 0;
  {
    ServingPipeline::Options serving_options;
    serving_options.num_sectors = study.num_sectors();
    serving_options.num_kpis = study.network.num_kpis();
    serving_options.calendar = &study.network.calendar_matrix;
    serving_options.score = study.score_config;
    serving_options.history_weeks = study.num_weeks() + 1;
    ServingPipeline serving(&service, serving_options);
    for (int j = 0; j < study.network.num_hours(); ++j) {
      for (int i = 0; i < study.num_sectors(); ++i) {
        serving.Push(i, j, study.network.kpis.Slice(i, j),
                     study.network.kpis.dim2());
      }
    }
    serving.Finish();
    batches = serving.TakePredictions().size();
  }

  int failures = 0;
  // Quiesced: no instrument moves after this frame, so each of its samples
  // must equal a direct read of the instrument it names — counter totals,
  // gauge values, histogram counts and sums alike.
  const obs::Snapshot frame = exporter.SampleNow();
  exporter.Stop();
  const obs::MetricsRegistry& metrics = context.metrics();

  const auto counters = metrics.Counters();
  if (frame.counters.size() != counters.size()) {
    std::fprintf(stderr, "FAIL: frame has %zu counters, registry %zu\n",
                 frame.counters.size(), counters.size());
    ++failures;
  } else {
    for (size_t i = 0; i < counters.size(); ++i) {
      const uint64_t total = counters[i].second->Total();
      if (frame.counters[i].name != counters[i].first ||
          frame.counters[i].value != total) {
        std::fprintf(stderr, "FAIL: counter %s frame=%llu registry=%llu\n",
                     counters[i].first.c_str(),
                     static_cast<unsigned long long>(frame.counters[i].value),
                     static_cast<unsigned long long>(total));
        ++failures;
      }
    }
  }
  const auto gauges = metrics.Gauges();
  if (frame.gauges.size() != gauges.size()) {
    std::fprintf(stderr, "FAIL: frame has %zu gauges, registry %zu\n",
                 frame.gauges.size(), gauges.size());
    ++failures;
  } else {
    for (size_t i = 0; i < gauges.size(); ++i) {
      if (frame.gauges[i].name != gauges[i].first ||
          frame.gauges[i].value != gauges[i].second->Value()) {
        std::fprintf(stderr, "FAIL: gauge %s diverges from the registry\n",
                     gauges[i].first.c_str());
        ++failures;
      }
    }
  }
  const auto histograms = metrics.Histograms();
  if (frame.histograms.size() != histograms.size()) {
    std::fprintf(stderr, "FAIL: frame has %zu histograms, registry %zu\n",
                 frame.histograms.size(), histograms.size());
    ++failures;
  } else {
    for (size_t i = 0; i < histograms.size(); ++i) {
      if (frame.histograms[i].name != histograms[i].first ||
          frame.histograms[i].count != histograms[i].second->Count() ||
          frame.histograms[i].sum != histograms[i].second->Sum()) {
        std::fprintf(stderr, "FAIL: histogram %s diverges from the registry\n",
                     histograms[i].first.c_str());
        ++failures;
      }
    }
  }
  // The workload must actually have landed in the frame.
  bool saw_rows = false;
  for (const obs::Snapshot::CounterSample& counter : frame.counters) {
    if (counter.name == "stream/rows_accepted" && counter.value > 0) {
      saw_rows = true;
    }
  }
  if (!saw_rows || batches == 0) {
    std::fprintf(stderr, "FAIL: workload left no telemetry trace\n");
    ++failures;
  }

  // Name lint over everything the run registered, through the mangling
  // round trip.
  int linted = 0;
  auto lint = [&failures, &linted](const std::string& name) {
    if (!obs::IsValidMetricName(name) ||
        obs::FromPrometheusName(obs::ToPrometheusName(name)) != name) {
      std::fprintf(stderr, "FAIL: metric name %s flunks the lint\n",
                   name.c_str());
      ++failures;
    }
    ++linted;
  };
  for (const auto& [name, counter] : counters) {
    (void)counter;
    lint(name);
  }
  for (const auto& [name, gauge] : gauges) {
    (void)gauge;
    lint(name);
  }
  for (const auto& [name, histogram] : histograms) {
    (void)histogram;
    lint(name);
  }
  std::printf("telemetry smoke: %llu frames, %zu counters, %zu histograms, "
              "%d names linted, %zu batches served\n",
              static_cast<unsigned long long>(exporter.frames()),
              frame.counters.size(), frame.histograms.size(), linted,
              batches);
  std::printf("result: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hotspot

int main(int argc, char** argv) {
  if (std::getenv("HOTSPOT_MICRO_SMOKE") != nullptr) {
    return hotspot::Smoke();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
