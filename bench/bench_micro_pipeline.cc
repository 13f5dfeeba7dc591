// google-benchmark microbenchmarks of the data pipeline — score
// computation, temporal integration, window extraction, the three feature
// extractors, average precision — plus the serving runtime: end-to-end
// rows/sec through pipeline::ServingPipeline (four phases run to
// completion on one worker behind a bounded ingress queue).
//
// HOTSPOT_MICRO_SMOKE=1 switches to a seconds-scale correctness smoke
// (the ctest registration, label `pipeline`): streams a small study
// through the pipeline under a live obs::PipelineContext, cross-checks
// the stream/ and pipeline/ counters against the run's ground truth, and
// re-verifies the streamed-vs-batch bitwise contract. With
// HOTSPOT_BENCH_JSON=<path> the smoke exports the serving trajectory
// (end-to-end rows/sec, per-phase p50/p99 latency, ingress queue
// occupancy) — the checked-in BENCH_micro_pipeline.json. With
// HOTSPOT_OBS_JSON=<path> either mode exports the metrics snapshot.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/config.h"
#include "core/forecast_service.h"
#include "core/score.h"
#include "core/study.h"
#include "features/feature_tensor.h"
#include "features/handcrafted_features.h"
#include "features/percentile_features.h"
#include "features/raw_features.h"
#include "features/window.h"
#include "host_fingerprint.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "obs/telemetry.h"
#include "pipeline/serving_pipeline.h"
#include "simnet/generator.h"
#include "stats/average_precision.h"
#include "stats/percentile.h"
#include "tensor/temporal.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace hotspot {
namespace {

const simnet::SyntheticNetwork& SharedNetwork() {
  static const simnet::SyntheticNetwork& network = *[] {
    simnet::GeneratorConfig config;
    config.topology.target_sectors = 60;
    config.weeks = 6;
    config.inject_missing = false;
    return new simnet::SyntheticNetwork(simnet::GenerateNetwork(config));
  }();
  return network;
}

void BM_GenerateNetwork(benchmark::State& state) {
  for (auto _ : state) {
    simnet::GeneratorConfig config;
    config.topology.target_sectors = static_cast<int>(state.range(0));
    config.weeks = 4;
    simnet::SyntheticNetwork network = simnet::GenerateNetwork(config);
    benchmark::DoNotOptimize(network.kpis.size());
  }
}
BENCHMARK(BM_GenerateNetwork)->Arg(30)->Arg(120);

void BM_ComputeHourlyScore(benchmark::State& state) {
  const simnet::SyntheticNetwork& network = SharedNetwork();
  ScoreConfig config = ScoreConfigFromCatalog(network.catalog);
  for (auto _ : state) {
    Matrix<float> score = ComputeHourlyScore(network.kpis, config);
    benchmark::DoNotOptimize(score.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(network.kpis.size()));
}
BENCHMARK(BM_ComputeHourlyScore);

void BM_IntegrateScores(benchmark::State& state) {
  const simnet::SyntheticNetwork& network = SharedNetwork();
  ScoreConfig config = ScoreConfigFromCatalog(network.catalog);
  Matrix<float> hourly = ComputeHourlyScore(network.kpis, config);
  for (auto _ : state) {
    Matrix<float> daily = IntegrateScores(hourly, Resolution::kDaily);
    benchmark::DoNotOptimize(daily.size());
  }
}
BENCHMARK(BM_IntegrateScores);

features::FeatureTensor SharedFeatures() {
  const simnet::SyntheticNetwork& network = SharedNetwork();
  ScoreConfig config = ScoreConfigFromCatalog(network.catalog);
  Matrix<float> hourly = ComputeHourlyScore(network.kpis, config);
  Matrix<float> daily = IntegrateScores(hourly, Resolution::kDaily);
  Matrix<float> weekly = IntegrateScores(hourly, Resolution::kWeekly);
  Matrix<float> labels(daily.rows(), daily.cols(), 0.0f);
  return features::FeatureTensor::Build(network.kpis,
                                        network.calendar_matrix, hourly,
                                        daily, weekly, labels);
}

void BM_BuildFeatureTensor(benchmark::State& state) {
  for (auto _ : state) {
    features::FeatureTensor x = SharedFeatures();
    benchmark::DoNotOptimize(x.num_channels());
  }
}
BENCHMARK(BM_BuildFeatureTensor);

template <typename Extractor>
void ExtractorBench(benchmark::State& state) {
  features::FeatureTensor x = SharedFeatures();
  Extractor extractor;
  std::vector<float> out;
  int sector = 0;
  for (auto _ : state) {
    Matrix<float> window = features::ExtractWindow(
        x, sector % x.num_sectors(), 14, 7);
    extractor.Extract(window, &out);
    benchmark::DoNotOptimize(out.size());
    ++sector;
  }
}

void BM_RawExtractor(benchmark::State& state) {
  ExtractorBench<features::RawExtractor>(state);
}
BENCHMARK(BM_RawExtractor);

void BM_PercentileExtractor(benchmark::State& state) {
  ExtractorBench<features::DailyPercentileExtractor>(state);
}
BENCHMARK(BM_PercentileExtractor);

void BM_HandcraftedExtractor(benchmark::State& state) {
  ExtractorBench<features::HandcraftedExtractor>(state);
}
BENCHMARK(BM_HandcraftedExtractor);

void BM_AveragePrecision(benchmark::State& state) {
  Rng rng(7);
  const int n = static_cast<int>(state.range(0));
  std::vector<float> labels(static_cast<size_t>(n));
  std::vector<float> scores(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = rng.Bernoulli(0.05) ? 1.0f : 0.0f;
    scores[static_cast<size_t>(i)] = static_cast<float>(rng.UniformDouble());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(AveragePrecision(labels, scores));
  }
}
BENCHMARK(BM_AveragePrecision)->Arg(1000)->Arg(20000);

// ---------------------------------------------------------------------------
// Serving runtime

/// The end-to-end fixture: a trained GBDT service over a small synthetic
/// study (the stream/serve bench recipe), streamed hour-major through
/// the ServingPipeline.
struct StagedFixture {
  Study study;
  std::unique_ptr<ForecastService> service;

  StagedFixture() {
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

  pipeline::ServingPipeline::Options Options() const {
    pipeline::ServingPipeline::Options options;
    options.num_sectors = study.num_sectors();
    options.num_kpis = study.network.num_kpis();
    options.calendar = &study.network.calendar_matrix;
    options.score = study.score_config;
    options.history_weeks = study.num_weeks() + 1;
    return options;
  }
};

StagedFixture& Staged() {
  static StagedFixture* fixture = new StagedFixture();
  return *fixture;
}

/// One full serving run: every KPI row hour-major through the pipeline,
/// Finish, predictions out. Returns rows pushed; `finished` reports
/// whether the pipeline drained and joined its worker.
int64_t StagedServeOnce(StagedFixture& fixture,
                        const pipeline::ServingPipeline::Options& options,
                        std::vector<StreamingPrediction>* served,
                        std::vector<pipeline::StageStats>* stages,
                        bool* finished = nullptr) {
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
  if (served != nullptr) *served = serving.TakePredictions();
  if (stages != nullptr) *stages = serving.StageSnapshot();
  if (finished != nullptr) *finished = serving.finished();
  return rows;
}

void BM_StagedPipelineServe(benchmark::State& state) {
  StagedFixture& fixture = Staged();
  int64_t rows = 0, predictions = 0;
  for (auto _ : state) {
    std::vector<StreamingPrediction> served;
    rows += StagedServeOnce(fixture, fixture.Options(), &served, nullptr);
    for (const StreamingPrediction& p : served) {
      predictions += static_cast<int64_t>(p.scores.size());
    }
    benchmark::DoNotOptimize(predictions);
  }
  state.SetItemsProcessed(rows);
  state.counters["predictions"] =
      benchmark::Counter(static_cast<double>(predictions),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StagedPipelineServe);

/// Per-phase trajectory row assembled from the phase's own books plus the
/// obs histograms.
struct StageReport {
  std::string name;
  uint64_t items = 0;
  double busy_seconds = 0.0;
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  int queue_capacity = 0;
  int queue_high_water = 0;
  uint64_t backpressure_waits = 0;
  double push_blocked_seconds = 0.0;
};

std::vector<StageReport> BuildStageReports(
    const std::vector<pipeline::StageStats>& stages,
    const obs::Snapshot& snapshot) {
  std::vector<StageReport> reports;
  for (const pipeline::StageStats& stage : stages) {
    StageReport report;
    report.name = stage.name;
    report.items = stage.items_in;
    report.busy_seconds = stage.busy_seconds;
    report.queue_capacity = stage.input.capacity;
    report.queue_high_water = stage.input.high_water;
    report.backpressure_waits = stage.input.push_waits;
    report.push_blocked_seconds = stage.input.push_blocked_seconds;
    const std::string histogram_name =
        "pipeline/" + stage.name + "_latency_seconds";
    for (const auto& histogram : snapshot.histograms) {
      if (histogram.name == histogram_name) {
        report.p50_latency_seconds = obs::HistogramQuantile(histogram, 0.5);
        report.p99_latency_seconds = obs::HistogramQuantile(histogram, 0.99);
      }
    }
    reports.push_back(report);
  }
  return reports;
}

/// CPU seconds of every thread of the process — the worker, the pool and
/// a live exporter's thread alike.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The telemetry-overhead measurement: paired legs with and without a
/// live 1 Hz TelemetryExporter, each timed in process CPU seconds.
struct TelemetryOverhead {
  int pairs = 0;
  double plain_cpu_seconds = 0.0;      ///< median leg, no exporter
  double telemetry_cpu_seconds = 0.0;  ///< plain x the geometric-mean ratio
  double overhead_fraction = 0.0;  ///< geometric-mean ratio - 1
  /// 25th and 75th percentiles of the per-pair ratios, - 1.
  double overhead_p25 = 0.0;
  double overhead_p75 = 0.0;
};

bool WriteStagedJson(const std::string& path, const StagedFixture& fixture,
                     int64_t rows, size_t batches, double seconds,
                     const std::vector<StageReport>& reports,
                     const TelemetryOverhead& telemetry) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\n");
  std::fprintf(file, "  \"bench\": \"bench_micro_pipeline\",\n");
  std::fprintf(file, "  \"trajectory\": \"run_to_completion_pipeline\",\n");
  bench::WriteHostJson(file);
  std::fprintf(file, "  \"sectors\": %d,\n", fixture.study.num_sectors());
  std::fprintf(file, "  \"hours\": %d,\n",
               fixture.study.network.num_hours());
  std::fprintf(file, "  \"rows\": %lld,\n", static_cast<long long>(rows));
  std::fprintf(file, "  \"prediction_batches\": %zu,\n", batches);
  std::fprintf(file, "  \"end_to_end_seconds\": %.4f,\n", seconds);
  std::fprintf(file, "  \"rows_per_sec\": %.0f,\n",
               static_cast<double>(rows) / seconds);
  std::fprintf(file, "  \"stages\": [\n");
  for (size_t s = 0; s < reports.size(); ++s) {
    const StageReport& r = reports[s];
    std::fprintf(file,
                 "    {\"name\": \"%s\", \"items\": %llu, "
                 "\"busy_seconds\": %.4f, \"p50_latency_seconds\": %.6f, "
                 "\"p99_latency_seconds\": %.6f",
                 r.name.c_str(), static_cast<unsigned long long>(r.items),
                 r.busy_seconds, r.p50_latency_seconds,
                 r.p99_latency_seconds);
    // Only the ingest phase has a queue (the pipeline's ingress).
    if (r.queue_capacity > 0) {
      std::fprintf(file,
                   ", \"queue_capacity\": %d, \"queue_high_water\": %d, "
                   "\"backpressure_waits\": %llu, "
                   "\"push_blocked_seconds\": %.4f",
                   r.queue_capacity, r.queue_high_water,
                   static_cast<unsigned long long>(r.backpressure_waits),
                   r.push_blocked_seconds);
    }
    std::fprintf(file, "}%s\n", s + 1 < reports.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n");
  std::fprintf(file, "  \"telemetry_overhead\": {\n");
  std::fprintf(file, "    \"exporter_period_seconds\": 1.0,\n");
  std::fprintf(file, "    \"timing\": \"process CPU seconds per leg\",\n");
  std::fprintf(file, "    \"pairs\": %d,\n", telemetry.pairs);
  std::fprintf(file, "    \"plain_rows_per_cpu_sec\": %.0f,\n",
               static_cast<double>(rows) / telemetry.plain_cpu_seconds);
  std::fprintf(file, "    \"telemetry_rows_per_cpu_sec\": %.0f,\n",
               static_cast<double>(rows) / telemetry.telemetry_cpu_seconds);
  std::fprintf(file, "    \"overhead_percent\": %.2f,\n",
               100.0 * telemetry.overhead_fraction);
  std::fprintf(file, "    \"overhead_percent_p25\": %.2f,\n",
               100.0 * telemetry.overhead_p25);
  std::fprintf(file, "    \"overhead_percent_p75\": %.2f,\n",
               100.0 * telemetry.overhead_p75);
  std::fprintf(file,
               "    \"contract\": \"predictions bitwise-identical with the "
               "exporter and flight recorder live; budget <2%%\"\n");
  std::fprintf(file, "  },\n");
  std::fprintf(file,
               "  \"contract\": \"streamed output bitwise-identical to batch "
               "PredictAtDay; a full ingress queue blocks Push, never "
               "drops\"\n");
  std::fprintf(file, "}\n");
  std::fclose(file);
  return true;
}

/// Seconds-scale smoke: the serving runtime end to end under a live
/// context — counters cross-checked against ground truth, the bitwise
/// streamed-vs-batch contract re-verified, the trajectory exported.
int Smoke() {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  StagedFixture& fixture = Staged();

  std::vector<StreamingPrediction> served;
  std::vector<pipeline::StageStats> stages;
  bool finished = false;
  Stopwatch watch;
  const int64_t rows = StagedServeOnce(fixture, fixture.Options(), &served,
                                       &stages, &finished);
  const double seconds = watch.ElapsedSeconds();
  std::printf("pipeline serve: %lld rows -> %zu batches in %.3fs "
              "(%.0f rows/sec)\n",
              static_cast<long long>(rows), served.size(), seconds,
              static_cast<double>(rows) / seconds);

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
  expect_counter("stream/rows_offered", static_cast<uint64_t>(rows));
  expect_counter("stream/rows_accepted", static_cast<uint64_t>(rows));
  expect_counter("stream/rows_rejected", 0);
  expect_counter("stream/rows_late_dropped", 0);
  expect_counter("stream/prediction_batches",
                 static_cast<uint64_t>(served.size()));
  uint64_t predictions = 0;
  for (const StreamingPrediction& p : served) {
    predictions += static_cast<uint64_t>(p.scores.size());
  }
  expect_counter("stream/predictions", predictions);
  if (stages.size() != 4) {
    std::fprintf(stderr, "FAIL: expected 4 phases, got %zu\n",
                 stages.size());
    ++failures;
  }
  if (!finished) {
    std::fprintf(stderr, "FAIL: pipeline not drained after Finish\n");
    ++failures;
  }
  for (const pipeline::StageStats& stage : stages) {
    const uint64_t items =
        context.metrics()
            .counter("pipeline/" + stage.name + "_items")
            .Total();
    if (items != stage.items_in) {
      std::fprintf(stderr,
                   "FAIL: pipeline/%s_items = %llu, stage saw %llu\n",
                   stage.name.c_str(),
                   static_cast<unsigned long long>(items),
                   static_cast<unsigned long long>(stage.items_in));
      ++failures;
    }
  }

  // The contract the whole runtime exists to preserve: streamed scores ==
  // batch scores, bit for bit.
  const int window_days = fixture.service->bundle().window_days;
  for (const StreamingPrediction& prediction : served) {
    std::vector<float> batch = fixture.service->PredictAtDay(
        fixture.study.features, prediction.end_day);
    if (batch.size() != prediction.scores.size() ||
        std::memcmp(batch.data(), prediction.scores.data(),
                    batch.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "FAIL: stream/batch mismatch at end day %d\n",
                   prediction.end_day);
      ++failures;
    }
  }
  if (served.empty() ||
      served.front().end_day != window_days) {
    std::fprintf(stderr, "FAIL: pipeline serve produced no predictions\n");
    ++failures;
  }

  const obs::Snapshot snapshot = obs::TakeSnapshot(context);
  const std::vector<StageReport> reports =
      BuildStageReports(stages, snapshot);
  for (const StageReport& r : reports) {
    std::printf("phase %-8s items=%llu busy=%.1fms p50=%.0fus p99=%.0fus",
                r.name.c_str(), static_cast<unsigned long long>(r.items),
                1e3 * r.busy_seconds, 1e6 * r.p50_latency_seconds,
                1e6 * r.p99_latency_seconds);
    if (r.queue_capacity > 0) {
      std::printf(" queue high-water %d/%d backpressure_waits=%llu",
                  r.queue_high_water, r.queue_capacity,
                  static_cast<unsigned long long>(r.backpressure_waits));
    }
    std::printf("\n");
  }

  // Telemetry-overhead leg: the same workload again, in paired runs with
  // and without a live 1 Hz background exporter (the production cadence)
  // over the same context — whose flight recorder the worker is writing to
  // throughout. The predictions with telemetry must stay bitwise identical
  // to the baseline run above; the CPU-time delta is the number the <2 %
  // budget in BENCH_micro_pipeline.json tracks (reported, not asserted —
  // sanitizer builds and loaded CI boxes make timing assertions flaky).
  TelemetryOverhead telemetry;
  {
    // Each leg is timed in process CPU seconds, so the exporter thread's
    // own work counts wherever it runs, and time the process spends
    // descheduled does not. The legs alternate in ABBA order to cancel
    // machine drift. One warmup run absorbs first-touch effects.
    constexpr int kReps = 30;  // even: equal counts of each ABBA order
    StagedServeOnce(fixture, fixture.Options(), nullptr, nullptr);
    obs::TelemetryOptions exporter_options;
    exporter_options.period = std::chrono::milliseconds(1000);
    exporter_options.final_frame_on_stop = false;
    std::vector<StreamingPrediction> telemetry_served;
    std::vector<double> plain_runs, telemetry_runs;
    auto run_plain = [&] {
      const double start = ProcessCpuSeconds();
      StagedServeOnce(fixture, fixture.Options(), nullptr, nullptr);
      plain_runs.push_back(ProcessCpuSeconds() - start);
    };
    auto run_telemetry = [&] {
      obs::TelemetryExporter exporter(&context, exporter_options);
      exporter.SampleNow();  // a frame boundary lands inside the pair
      const double start = ProcessCpuSeconds();
      StagedServeOnce(fixture, fixture.Options(), &telemetry_served,
                      nullptr);
      telemetry_runs.push_back(ProcessCpuSeconds() - start);
    };
    for (int rep = 0; rep < kReps; ++rep) {
      // ABBA ordering: the second leg of a pair runs warmer (caches,
      // frequency ramp), so the order flips every rep to keep the bias
      // out of the comparison.
      if (rep % 2 == 0) {
        run_plain();
        run_telemetry();
      } else {
        run_telemetry();
        run_plain();
      }
    }
    // Paired geometric-mean estimator: each rep's two legs run back to
    // back, so their ratio cancels whatever load the machine was under
    // at that moment; the ABBA flip means half the ratios carry the
    // warm-second-leg bias one way and half the other, and the
    // geometric mean cancels that multiplicative bias exactly. The
    // quartiles of the ratios say how far one pair can stray from it.
    std::vector<float> ratios;
    double log_ratio_sum = 0.0;
    for (size_t rep = 0; rep < plain_runs.size(); ++rep) {
      const double pair_ratio = telemetry_runs[rep] / plain_runs[rep];
      ratios.push_back(static_cast<float>(pair_ratio));
      log_ratio_sum += std::log(pair_ratio);
    }
    const double ratio =
        std::exp(log_ratio_sum / static_cast<double>(ratios.size()));
    const std::vector<double> quartiles = Percentiles(ratios, {25.0, 75.0});
    telemetry.pairs = kReps;
    telemetry.plain_cpu_seconds = Percentile(
        std::vector<float>(plain_runs.begin(), plain_runs.end()), 50.0);
    telemetry.telemetry_cpu_seconds = telemetry.plain_cpu_seconds * ratio;
    telemetry.overhead_fraction = ratio - 1.0;
    telemetry.overhead_p25 = quartiles[0] - 1.0;
    telemetry.overhead_p75 = quartiles[1] - 1.0;
    if (telemetry_served.size() != served.size()) {
      std::fprintf(stderr,
                   "FAIL: telemetry run served %zu batches, baseline %zu\n",
                   telemetry_served.size(), served.size());
      ++failures;
    } else {
      for (size_t b = 0; b < served.size(); ++b) {
        if (telemetry_served[b].scores.size() != served[b].scores.size() ||
            std::memcmp(telemetry_served[b].scores.data(),
                        served[b].scores.data(),
                        served[b].scores.size() * sizeof(float)) != 0) {
          std::fprintf(stderr,
                       "FAIL: telemetry changed predictions at end day %d\n",
                       served[b].end_day);
          ++failures;
        }
      }
    }
    std::printf("telemetry overhead (1 Hz exporter, process CPU): plain "
                "%.0f rows/cpu-s, live %.0f rows/cpu-s, %+0.2f%% "
                "(per-pair p25 %+0.2f%%, p75 %+0.2f%%, %d pairs)\n",
                static_cast<double>(rows) / telemetry.plain_cpu_seconds,
                static_cast<double>(rows) / telemetry.telemetry_cpu_seconds,
                100.0 * telemetry.overhead_fraction,
                100.0 * telemetry.overhead_p25,
                100.0 * telemetry.overhead_p75, telemetry.pairs);
  }

  if (const char* path = std::getenv("HOTSPOT_BENCH_JSON")) {
    if (!WriteStagedJson(path, fixture, rows, served.size(), seconds,
                         reports, telemetry)) {
      std::fprintf(stderr, "FAIL: could not write %s\n", path);
      ++failures;
    } else {
      std::printf("bench trajectory: %s\n", path);
    }
  }
  if (const char* path = std::getenv("HOTSPOT_OBS_JSON")) {
    if (!obs::WriteSnapshotJson(snapshot, path)) {
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
}  // namespace hotspot

int main(int argc, char** argv) {
  if (std::getenv("HOTSPOT_MICRO_SMOKE") != nullptr) {
    return hotspot::Smoke();
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
