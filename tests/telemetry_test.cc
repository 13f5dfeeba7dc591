// The live-telemetry lockdown suite: TelemetryExporter frame semantics
// (deltas, rates, quantiles, exemplars, NDJSON/Prometheus rendering), the
// background sampling thread, and the observe-only contract — a serving
// pipeline with a live exporter + flight recorder produces predictions
// bitwise identical to a run with telemetry disabled, at every
// thread-matrix count. Also the registry-wide metric-name lint: after a
// real pipeline + fleet workload, every registered name must match
// `[a-zA-Z_][a-zA-Z0-9_/]*` and survive the Prometheus mangling round
// trip.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/forecast_service.h"
#include "core/study.h"
#include "fleet/forecast_fleet.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "pipeline/serving_pipeline.h"
#include "thread_matrix.h"

namespace hotspot {
namespace {

using obs::FrameToJsonLine;
using obs::FrameToPrometheusText;
using obs::PipelineContext;
using obs::Snapshot;
using obs::TelemetryExporter;
using obs::TelemetryOptions;
using pipeline::ServingPipeline;

// ---------------------------------------------------------------------------
// Fixtures (the pipeline_test recipe: small single-city study, GBDT
// bundle, complete forward-fill-imputed KPIs).

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

const ForecastService& SharedService() {
  static const ForecastService* service = [] {
    const Study& study = SharedStudy();
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
    return new ForecastService(std::move(bundle));
  }();
  return *service;
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

/// Streams the study hour-major through a fresh pipeline over the shared
/// service and returns the served predictions.
std::vector<StreamingPrediction> RunPipelineServe(const Study& study) {
  ForecastService service(serialize::CloneBundle(SharedService().bundle()));
  ServingPipeline serving(&service, OptionsFor(study));
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      EXPECT_TRUE(serving.Push(i, j, study.network.kpis.Slice(i, j),
                               study.network.kpis.dim2()));
    }
  }
  serving.Finish();
  return serving.TakePredictions();
}

// ---------------------------------------------------------------------------
// Frame semantics

/// The number that follows the first `key` in a rendered line.
double NumberAfter(const std::string& line, const std::string& key) {
  const size_t at = line.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + key.size(), nullptr);
}

TEST(TelemetryExporter, FrameCarriesDeltasRatesAndQuantiles) {
  PipelineContext context;
  context.metrics().counter("t/count").Add(10);
  obs::Histogram& histogram =
      context.metrics().histogram("t/hist", {0.1, 1.0, 10.0});
  for (int k = 0; k < 100; ++k) histogram.Observe(0.05);
  for (int k = 0; k < 9; ++k) histogram.Observe(5.0);
  histogram.ObserveWithExemplar(5.0, 77);
  context.metrics().gauge("t/gauge").Set(3.5);
  context.flight().Record(obs::FlightEventKind::kCustom, 1);

  TelemetryOptions options;
  options.final_frame_on_stop = false;
  TelemetryExporter exporter(&context, options);

  Snapshot first = exporter.SampleNow();
  EXPECT_EQ(first.index, 0u);
  ASSERT_EQ(first.counters.size(), 1u);
  EXPECT_EQ(first.counters[0].name, "t/count");
  EXPECT_EQ(first.counters[0].value, 10u);
  // The first frame's delta equals the total (previous frame = zero).
  EXPECT_EQ(first.counters[0].delta, 10u);
  // Rates and quantiles exist only where a frame is rendered.
  EXPECT_GT(NumberAfter(obs::FrameToJsonLine(first), "\"rate\":"), 0.0);
  ASSERT_EQ(first.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(first.gauges[0].value, 3.5);
  ASSERT_EQ(first.histograms.size(), 1u);
  EXPECT_EQ(first.histograms[0].count, 110u);
  EXPECT_EQ(first.histograms[0].delta, 110u);
  // 100 of 110 observations land in the first bucket: p50 sits inside
  // (0, 0.1], p99 inside (1, 10] — the exemplar points at an outlier.
  const double p50 = obs::HistogramQuantile(first.histograms[0], 0.5);
  const double p99 = obs::HistogramQuantile(first.histograms[0], 0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 0.1);
  EXPECT_GT(p99, 1.0);
  EXPECT_EQ(NumberAfter(obs::FrameToJsonLine(first), "\"p50\":"), p50);
  EXPECT_EQ(NumberAfter(obs::FrameToJsonLine(first), "\"p99\":"), p99);
  ASSERT_TRUE(first.histograms[0].has_exemplar);
  EXPECT_EQ(first.histograms[0].exemplar, 77);
  EXPECT_DOUBLE_EQ(first.histograms[0].exemplar_value, 5.0);
  EXPECT_EQ(first.flight_recorded, 1u);
  EXPECT_EQ(first.flight_dropped, 0u);

  // A quiet interval: deltas and rates return to zero, totals persist.
  context.metrics().counter("t/count").Add(5);
  Snapshot second = exporter.SampleNow();
  EXPECT_EQ(second.index, 1u);
  EXPECT_EQ(second.counters[0].value, 15u);
  EXPECT_EQ(second.counters[0].delta, 5u);
  EXPECT_EQ(second.histograms[0].delta, 0u);
  Snapshot third = exporter.SampleNow();
  EXPECT_EQ(third.counters[0].delta, 0u);
  EXPECT_DOUBLE_EQ(NumberAfter(obs::FrameToJsonLine(third), "\"rate\":"),
                   0.0);
  EXPECT_EQ(exporter.frames(), 3u);
}

TEST(TelemetryExporter, FirstFrameRendersLikeTakeSnapshot) {
  // A one-shot TakeSnapshot is an exporter's first frame: over a quiesced
  // context both render the same line once the clock fields agree.
  PipelineContext context;
  context.metrics().counter("t/count").Add(4);
  context.metrics().gauge("t/gauge").Set(0.25);
  context.metrics()
      .histogram("t/hist", {0.1, 1.0})
      .ObserveWithExemplar(0.5, 9);
  context.flight().Record(obs::FlightEventKind::kCustom, 1);
  {
    PipelineContext::ScopedInstall install(&context);
    HOTSPOT_SPAN("outer");
    HOTSPOT_SPAN("inner");
  }
  Snapshot snapshot = obs::TakeSnapshot(context);

  TelemetryOptions options;
  options.period = std::chrono::hours(1);
  options.final_frame_on_stop = false;
  TelemetryExporter exporter(&context, options);
  const Snapshot frame = exporter.SampleNow();
  EXPECT_GT(frame.interval_seconds, 0.0);
  EXPECT_EQ(snapshot.interval_seconds, 0.0);

  snapshot.t_ms = frame.t_ms;
  snapshot.interval_seconds = frame.interval_seconds;
  const std::string line = obs::FrameToJsonLine(frame);
  EXPECT_EQ(obs::FrameToJsonLine(snapshot), line);
  EXPECT_NE(line.find("\"spans\":[{\"path\":\"outer\",\"depth\":0,"
                      "\"count\":1,"),
            std::string::npos)
      << line;
}

TEST(TelemetryExporter, RendersSingleLineNdjsonAndPrometheusText) {
  PipelineContext context;
  context.metrics().counter("fleet/rows_routed").Add(3);
  context.metrics().histogram("serve/latency_seconds", {0.1}).Observe(0.05);
  TelemetryOptions options;
  options.final_frame_on_stop = false;
  TelemetryExporter exporter(&context, options);
  Snapshot frame = exporter.SampleNow();

  std::string line = FrameToJsonLine(frame);
  // NDJSON: one object, schema-tagged, with no interior newlines — the
  // sinks append the line terminator.
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 0);
  EXPECT_NE(line.find("\"schema\":\"hotspot.telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(line.find("\"name\":\"fleet/rows_routed\""), std::string::npos);
  EXPECT_NE(line.find("\"flight\":"), std::string::npos);

  std::string text = FrameToPrometheusText(frame);
  // Prometheus text: mangled names, TYPE annotations, summary quantiles.
  EXPECT_NE(text.find("# TYPE fleet:rows_routed counter"),
            std::string::npos);
  EXPECT_NE(text.find("fleet:rows_routed 3"), std::string::npos);
  EXPECT_NE(text.find("serve:latency_seconds"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_EQ(text.find('/'), std::string::npos);  // no illegal names leak
}

TEST(TelemetryExporter, AppendsNdjsonFramesToFile) {
  PipelineContext context;
  context.metrics().counter("t/count").Increment();
  const std::string path =
      (std::filesystem::temp_directory_path() / "hotspot_telemetry_test.ndjson")
          .string();
  std::filesystem::remove(path);
  {
    TelemetryOptions options;
    options.json_path = path;
    options.period = std::chrono::hours(1);  // only explicit samples
    TelemetryExporter exporter(&context, options);
    exporter.SampleNow();
    exporter.Stop();  // final_frame_on_stop appends one more
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents(1 << 16, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), file));
  std::fclose(file);
  std::filesystem::remove(path);
  EXPECT_EQ(std::count(contents.begin(), contents.end(), '\n'), 2);
  EXPECT_NE(contents.find("\"frame\":0"), std::string::npos);
  EXPECT_NE(contents.find("\"frame\":1"), std::string::npos);
}

TEST(TelemetryExporterDeathTest, RefusesASinkPathItCannotOpen) {
  PipelineContext context;
  const std::filesystem::path missing_dir =
      std::filesystem::temp_directory_path() / "hotspot_telemetry_no_dir";
  std::filesystem::remove_all(missing_dir);
  const std::string path = (missing_dir / "frames.txt").string();
  TelemetryOptions json;
  json.json_path = path;
  EXPECT_DEATH({ TelemetryExporter exporter(&context, json); },
               "json_path .*hotspot_telemetry_no_dir/frames.txt: No such "
               "file or directory");
  TelemetryOptions prometheus;
  prometheus.prometheus_path = path;
  EXPECT_DEATH({ TelemetryExporter exporter(&context, prometheus); },
               "prometheus_path .*hotspot_telemetry_no_dir/frames.txt: No "
               "such file or directory");
}

TEST(TelemetryExporter, BackgroundThreadProducesFrames) {
  PipelineContext context;
  std::atomic<uint64_t> delivered{0};
  TelemetryOptions options;
  options.period = std::chrono::milliseconds(5);
  options.final_frame_on_stop = false;
  options.on_frame = [&delivered](const Snapshot&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  };
  TelemetryExporter exporter(&context, options);
  // Timing-lenient: wait up to 5 s for two background frames rather than
  // asserting on a sleep.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (delivered.load(std::memory_order_relaxed) < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  exporter.Stop();
  EXPECT_GE(delivered.load(), 2u);
  EXPECT_GE(exporter.frames(), 2u);
  // Stop is idempotent and the destructor tolerates a stopped exporter.
  exporter.Stop();
}

// ---------------------------------------------------------------------------
// The observe-only contract: telemetry must never change a prediction

TEST(Telemetry, PipelinePredictionsBitwiseIdenticalWithExporterOn) {
  const Study& study = SharedStudy();
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    // Reference run: no context installed, all instrumentation off.
    std::vector<StreamingPrediction> baseline = RunPipelineServe(study);
    ASSERT_FALSE(baseline.empty());

    // Instrumented run: full context (metrics + flight recorder) with a
    // fast background exporter sampling concurrently.
    PipelineContext context;
    PipelineContext::ScopedInstall install(&context);
    TelemetryOptions options;
    options.period = std::chrono::milliseconds(2);
    TelemetryExporter exporter(&context, options);
    std::vector<StreamingPrediction> instrumented = RunPipelineServe(study);
    exporter.Stop();

    ASSERT_EQ(instrumented.size(), baseline.size()) << "threads=" << threads;
    for (size_t b = 0; b < baseline.size(); ++b) {
      EXPECT_EQ(instrumented[b].end_day, baseline[b].end_day);
      ASSERT_EQ(instrumented[b].scores.size(), baseline[b].scores.size());
      EXPECT_EQ(std::memcmp(instrumented[b].scores.data(),
                            baseline[b].scores.data(),
                            baseline[b].scores.size() * sizeof(float)),
                0)
          << "threads=" << threads << " end_day=" << baseline[b].end_day;
    }

    // The run actually exercised the tracing: every stage's residency
    // histogram observed every traced item, exemplars included.
    for (int stage = 0; stage < 4; ++stage) {
      obs::Histogram& residency = context.metrics().histogram(
          "pipeline/stage" + std::to_string(stage) + "/residency_seconds",
          obs::DefaultLatencySeconds());
      EXPECT_GT(residency.Count(), 0u)
          << "threads=" << threads << " stage=" << stage;
      int64_t exemplar = 0;
      double value = 0.0;
      EXPECT_TRUE(residency.LastExemplar(&exemplar, &value))
          << "threads=" << threads << " stage=" << stage;
      EXPECT_GE(value, 0.0);
    }
  });
}

// ---------------------------------------------------------------------------
// Registry-wide name lint after a real workload

TEST(Telemetry, EveryRegisteredMetricNamePassesTheLint) {
  const Study& study = SharedStudy();
  PipelineContext context;
  PipelineContext::ScopedInstall install(&context);

  // A pipeline run and a 2-shard fleet run, so the registry holds the
  // full production name surface: pipeline/, serve/, stream/, fleet/ and
  // the shard-scoped families.
  (void)RunPipelineServe(study);
  {
    fleet::FleetOptions options;
    options.num_shards = 2;
    options.serving = OptionsFor(study);
    fleet::ForecastFleet fleet(
        serialize::CloneBundle(SharedService().bundle()), options);
    const int hours = study.network.num_hours();
    for (int j = 0; j < hours; ++j) {
      for (int i = 0; i < study.num_sectors(); ++i) {
        fleet::ForecastFleet::PushVerdict verdict;
        while ((verdict = fleet.Push(i, j, study.network.kpis.Slice(i, j),
                                     study.network.kpis.dim2())) ==
               fleet::ForecastFleet::PushVerdict::kRejectedOverload) {
          std::this_thread::yield();
        }
        ASSERT_EQ(verdict, fleet::ForecastFleet::PushVerdict::kRouted);
      }
    }
    fleet.Finish();
  }

  int checked = 0;
  for (const auto& [name, counter] : context.metrics().Counters()) {
    (void)counter;
    EXPECT_TRUE(obs::IsValidMetricName(name)) << name;
    EXPECT_EQ(obs::FromPrometheusName(obs::ToPrometheusName(name)), name);
    ++checked;
  }
  for (const auto& [name, gauge] : context.metrics().Gauges()) {
    (void)gauge;
    EXPECT_TRUE(obs::IsValidMetricName(name)) << name;
    EXPECT_EQ(obs::FromPrometheusName(obs::ToPrometheusName(name)), name);
    ++checked;
  }
  for (const auto& [name, histogram] : context.metrics().Histograms()) {
    (void)histogram;
    EXPECT_TRUE(obs::IsValidMetricName(name)) << name;
    EXPECT_EQ(obs::FromPrometheusName(obs::ToPrometheusName(name)), name);
    ++checked;
  }
  // The workload registered the expected families; an empty registry
  // would vacuously pass.
  EXPECT_GT(checked, 20);
  EXPECT_GT(context.metrics().counter("fleet/rows_routed").Total(), 0u);
  obs::Histogram& shard_e2e = context.metrics().histogram(
      obs::ShardMetricName(0, "e2e_seconds"), obs::DefaultLatencySeconds());
  EXPECT_GT(shard_e2e.Count(), 0u);
}

}  // namespace
}  // namespace hotspot
