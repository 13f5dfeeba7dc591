// google-benchmark microbenchmarks of the serialization + serving layer:
// bundle save/load latency (the warm-start cost a serving process pays
// once), batched prediction throughput through ForecastService with and
// without online monitoring, and the single-thread predict trajectory of
// the flat-tree engine — the classic pointer walk (the test oracle) vs
// FlatForest scalar vs FlatForest SIMD over identical rows. The flat SIMD
// path must hold >= 5x the classic single-thread throughput; record the
// trajectory in BENCH_micro_serve.json (HOTSPOT_BENCH_JSON exports it) and
// EXPERIMENTS.md when the numbers change materially.
//
// HOTSPOT_MICRO_SMOKE=1 switches to a seconds-scale correctness smoke
// (the ctest registration, label `simd`): serves a monitored and an
// unmonitored batch under a live obs::PipelineContext, asserts both score
// vectors are bitwise identical to the pointer-walk oracle, cross-checks
// the serve/ counters against the batches actually served, and reports
// the measured predict trajectory. With HOTSPOT_OBS_JSON=<path> either
// mode exports the metrics snapshot.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/forecast_service.h"
#include "core/study.h"
#include "features/raw_features.h"
#include "features/window.h"
#include "host_fingerprint.h"
#include "ml/flat_tree.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "serialize/bundle.h"
#include "simnet/generator.h"
#include "util/stopwatch.h"

namespace hotspot {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// One shared study + trained bundle per process; benches measure the
/// serialize/serve layer, not training. The hot threshold is lowered from
/// the study default so the trained GBDT has real splits — an all-leaf
/// model would make every predict engine trivially fast.
struct ServeFixture {
  Study study;
  ForecastConfig config;
  std::string bundle_path = TempPath("hotspot_bench_serve.hsb");

  ServeFixture() {
    simnet::GeneratorConfig generator;
    generator.topology.target_sectors = 120;
    generator.topology.num_cities = 2;
    generator.weeks = 9;
    generator.seed = 404;
    StudyOptions options;
    options.hot_threshold_override = 0.5;
    study = BuildStudy(StudyInput(generator), options);
    config.model = ModelKind::kGbdt;
    config.t = 55;
    config.h = 1;
    config.w = 3;
    config.gbdt.num_iterations = 20;
    config.gbdt.num_leaves = 15;
    config.gbdt.max_bins = 32;

    Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
    std::unique_ptr<serialize::ForecastBundle> bundle =
        forecaster.TrainBundle(config);
    bundle->score = study.score_config;
    serialize::Status status = serialize::SaveBundle(bundle_path, *bundle);
    if (!status.ok) {
      std::fprintf(stderr, "bundle save failed: %s\n",
                   status.error.c_str());
      std::abort();
    }
  }

  /// The study's feature rows at day t, replicated to `rows` rows — the
  /// predict-trajectory benches all score exactly this matrix.
  Matrix<float> PredictRows(int rows) const {
    features::RawExtractor extractor;
    std::vector<float> row;
    Matrix<float> window =
        features::ExtractWindow(study.features, 0, config.t, config.w);
    extractor.Extract(window, &row);
    const int dim = static_cast<int>(row.size());
    Matrix<float> out(rows, dim);
    for (int i = 0; i < rows; ++i) {
      window = features::ExtractWindow(
          study.features, i % study.num_sectors(), config.t, config.w);
      extractor.Extract(window, &row);
      std::memcpy(out.Row(i), row.data(), row.size() * sizeof(float));
    }
    return out;
  }
};

ServeFixture& Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

std::unique_ptr<ForecastService> LoadService(benchmark::State* state) {
  std::unique_ptr<ForecastService> service;
  serialize::Status status =
      ForecastService::Load(Fixture().bundle_path, &service);
  if (!status.ok) {
    if (state != nullptr) state->SkipWithError(status.error.c_str());
    return nullptr;
  }
  return service;
}

void BM_BundleSave(benchmark::State& state) {
  ServeFixture& fixture = Fixture();
  Forecaster forecaster =
      fixture.study.MakeForecaster(TargetKind::kBeHotSpot);
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(fixture.config);
  bundle->score = fixture.study.score_config;
  const std::string path = TempPath("hotspot_bench_save.hsb");
  for (auto _ : state) {
    serialize::Status status = serialize::SaveBundle(path, *bundle);
    benchmark::DoNotOptimize(status.ok);
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_BundleSave);

void BM_BundleLoad(benchmark::State& state) {
  ServeFixture& fixture = Fixture();
  for (auto _ : state) {
    std::unique_ptr<ForecastService> service;
    serialize::Status status =
        ForecastService::Load(fixture.bundle_path, &service);
    benchmark::DoNotOptimize(service);
    if (!status.ok) state.SkipWithError(status.error.c_str());
  }
}
BENCHMARK(BM_BundleLoad);

// The monitored/unmonitored pair measures the online-monitoring
// observation cost per batch (strided input sampling + score window +
// latency histogram). The budget is <5 % over the unmonitored path —
// monitoring is an observer, not a tax on serving.
void ServePredictBatch(benchmark::State& state, bool monitored) {
  ServeFixture& fixture = Fixture();
  std::unique_ptr<ForecastService> service = LoadService(&state);
  if (service == nullptr) return;
  if (monitored) {
    if (!service->EnableMonitoring()) {
      state.SkipWithError("bundle carries no monitoring fingerprints");
      return;
    }
  } else {
    service->DisableMonitoring();
  }
  for (auto _ : state) {
    std::vector<float> scores =
        service->PredictAtDay(fixture.study.features, fixture.config.t);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          fixture.study.num_sectors());
}

void BM_ServePredictBatch(benchmark::State& state) {
  ServePredictBatch(state, /*monitored=*/false);
}
BENCHMARK(BM_ServePredictBatch);

void BM_ServePredictBatchMonitored(benchmark::State& state) {
  ServePredictBatch(state, /*monitored=*/true);
}
BENCHMARK(BM_ServePredictBatchMonitored);

// ---------------------------------------------------------------------------
// Single-thread predict trajectory: classic pointer walk vs flat engine
// ---------------------------------------------------------------------------

constexpr int kTrajectoryRows = 4096;

/// The engines of the predict trajectory, in presentation order.
enum class Engine { kClassic, kFlatScalar, kFlatSimd };

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kClassic:
      return "classic";
    case Engine::kFlatScalar:
      return "flat_scalar";
    case Engine::kFlatSimd:
      return "flat_simd";
  }
  return "?";
}

/// Scores `rows` once through `engine`, single-threaded, returning the
/// scores (doubles, so bitwise comparisons see full precision).
std::vector<double> PredictOnce(const ForecastService& service,
                                const Matrix<float>& rows, Engine engine) {
  const int n = rows.rows();
  std::vector<double> scores(static_cast<size_t>(n));
  if (engine == Engine::kClassic) {
    const ml::BinaryClassifier& model = *service.bundle().classifier;
    for (int i = 0; i < n; ++i) {
      scores[static_cast<size_t>(i)] = model.PredictProba(rows.Row(i));
    }
    return scores;
  }
  const ml::FlatForest& flat = service.flat_forest();
  const ml::FlatKernel kernel = engine == Engine::kFlatScalar
                                    ? ml::FlatKernel::kScalar
                                    : ml::FlatKernel::kAvx2;
  flat.PredictBatch(rows.Row(0), n, rows.cols(), scores.data(), kernel);
  return scores;
}

void PredictTrajectory(benchmark::State& state, Engine engine) {
  ServeFixture& fixture = Fixture();
  std::unique_ptr<ForecastService> service = LoadService(&state);
  if (service == nullptr) return;
  const Matrix<float> rows = fixture.PredictRows(kTrajectoryRows);
  for (auto _ : state) {
    std::vector<double> scores = PredictOnce(*service, rows, engine);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * kTrajectoryRows);
}

void BM_PredictClassic(benchmark::State& state) {
  PredictTrajectory(state, Engine::kClassic);
}
BENCHMARK(BM_PredictClassic);

void BM_PredictFlatScalar(benchmark::State& state) {
  PredictTrajectory(state, Engine::kFlatScalar);
}
BENCHMARK(BM_PredictFlatScalar);

void BM_PredictFlatSimd(benchmark::State& state) {
  PredictTrajectory(state, Engine::kFlatSimd);
}
BENCHMARK(BM_PredictFlatSimd);

// ---------------------------------------------------------------------------
// Trajectory measurement + JSON export (shared by smoke and bench modes)
// ---------------------------------------------------------------------------

struct TrajectoryPoint {
  Engine engine;
  double ns_per_row = 0.0;
  double rows_per_sec = 0.0;
  double speedup_vs_classic = 1.0;
};

/// Times each engine over the same rows until ~0.2 s has accumulated,
/// single-threaded, and verifies the scores stay bitwise identical along
/// the way. Returns the trajectory; increments `*failures` on divergence.
std::vector<TrajectoryPoint> MeasureTrajectory(
    const ForecastService& service, const Matrix<float>& rows,
    int* failures) {
  const std::vector<double> reference =
      PredictOnce(service, rows, Engine::kClassic);
  std::vector<TrajectoryPoint> trajectory;
  for (Engine engine :
       {Engine::kClassic, Engine::kFlatScalar, Engine::kFlatSimd}) {
    std::vector<double> scores = PredictOnce(service, rows, engine);
    if (std::memcmp(scores.data(), reference.data(),
                    reference.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "FAIL: %s scores diverge bitwise from classic\n",
                   EngineName(engine));
      ++*failures;
    }
    Stopwatch watch;
    int iterations = 0;
    double seconds = 0.0;
    do {
      benchmark::DoNotOptimize(PredictOnce(service, rows, engine).data());
      ++iterations;
      seconds = watch.ElapsedSeconds();
    } while (seconds < 0.2);
    TrajectoryPoint point;
    point.engine = engine;
    const double row_count =
        static_cast<double>(iterations) * rows.rows();
    point.ns_per_row = seconds * 1e9 / row_count;
    point.rows_per_sec = row_count / seconds;
    trajectory.push_back(point);
  }
  for (TrajectoryPoint& point : trajectory) {
    point.speedup_vs_classic =
        trajectory.front().ns_per_row / point.ns_per_row;
  }
  return trajectory;
}

void PrintTrajectory(const std::vector<TrajectoryPoint>& trajectory) {
  for (const TrajectoryPoint& point : trajectory) {
    std::printf("predict %-14s %9.1f ns/row %12.0f rows/sec %6.2fx\n",
                EngineName(point.engine), point.ns_per_row,
                point.rows_per_sec, point.speedup_vs_classic);
  }
}

/// Writes the predict trajectory as BENCH_micro_serve.json-style output.
bool WriteTrajectoryJson(const std::string& path,
                         const ForecastService& service,
                         const std::vector<TrajectoryPoint>& trajectory) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const ml::FlatForest& flat = service.flat_forest();
  std::fprintf(file, "{\n");
  std::fprintf(file, "  \"bench\": \"bench_micro_serve\",\n");
  std::fprintf(file, "  \"trajectory\": \"single_thread_predict\",\n");
  bench::WriteHostJson(file);
  std::fprintf(file, "  \"rows\": %d,\n", kTrajectoryRows);
  std::fprintf(file, "  \"features\": %d,\n", flat.num_features());
  std::fprintf(file, "  \"trees\": %d,\n", flat.num_trees());
  std::fprintf(file, "  \"nodes\": %d,\n", flat.num_nodes());
  std::fprintf(file, "  \"simd_compiled\": %s,\n",
               ml::FlatForest::SimdCompiled() ? "true" : "false");
  std::fprintf(file, "  \"simd_supported\": %s,\n",
               ml::FlatForest::SimdSupported() ? "true" : "false");
  std::fprintf(file, "  \"engines\": [\n");
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const TrajectoryPoint& point = trajectory[i];
    std::fprintf(file,
                 "    {\"name\": \"%s\", \"ns_per_row\": %.2f, "
                 "\"rows_per_sec\": %.0f, \"speedup_vs_classic\": %.2f}%s\n",
                 EngineName(point.engine), point.ns_per_row,
                 point.rows_per_sec, point.speedup_vs_classic,
                 i + 1 < trajectory.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n");
  std::fprintf(file,
               "  \"contract\": \"all engines bitwise-identical to "
               "classic; flat_simd target >= 5x classic\"\n");
  std::fprintf(file, "}\n");
  std::fclose(file);
  return true;
}

// ---------------------------------------------------------------------------
// Smoke mode
// ---------------------------------------------------------------------------

/// Seconds-scale smoke: a monitored and an unmonitored served batch under
/// a live context — both bitwise equal to the pointer-walk oracle, every
/// serve/ counter tied to the batches actually served — plus the
/// single-thread predict trajectory.
int Smoke() {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  int failures = 0;

  ServeFixture& fixture = Fixture();
  std::unique_ptr<ForecastService> service = LoadService(nullptr);
  if (service == nullptr) {
    std::fprintf(stderr, "FAIL: bundle load failed\n");
    return 1;
  }
  const int sectors = fixture.study.num_sectors();
  const uint64_t n = static_cast<uint64_t>(sectors);

  // The oracle: every sector's window at day t, scored by the pointer walk.
  const Matrix<float> sector_rows = fixture.PredictRows(sectors);
  std::vector<float> reference(static_cast<size_t>(sectors));
  for (int i = 0; i < sectors; ++i) {
    reference[static_cast<size_t>(i)] = static_cast<float>(
        service->bundle().classifier->PredictProba(sector_rows.Row(i)));
  }

  uint64_t batches = 0;
  for (bool monitored : {true, false}) {
    if (monitored) {
      if (!service->EnableMonitoring()) {
        std::fprintf(stderr, "FAIL: monitoring unavailable\n");
        return 1;
      }
    } else {
      service->DisableMonitoring();
    }
    std::vector<float> scores =
        service->PredictAtDay(fixture.study.features, fixture.config.t);
    ++batches;
    if (scores.size() != reference.size() ||
        std::memcmp(scores.data(), reference.data(),
                    reference.size() * sizeof(float)) != 0) {
      std::fprintf(stderr,
                   "FAIL: %s scores diverge bitwise from the pointer-walk "
                   "oracle\n",
                   monitored ? "monitored" : "unmonitored");
      ++failures;
    }
  }

  auto expect_counter = [&](const char* name, uint64_t expected) {
    const uint64_t actual = context.metrics().counter(name).Total();
    if (actual != expected) {
      std::fprintf(stderr, "FAIL: %s = %llu, expected %llu\n", name,
                   static_cast<unsigned long long>(actual),
                   static_cast<unsigned long long>(expected));
      ++failures;
    }
  };
  // Every served batch counts a request and n windows.
  expect_counter("serve/requests", batches);
  expect_counter("serve/windows", batches * n);
  std::printf("pair: %llu batches x %llu sectors, bitwise identical to "
              "the oracle\n",
              static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(n));

  // Predict trajectory (single-thread, classifier-level).
  const Matrix<float> rows = fixture.PredictRows(kTrajectoryRows);
  std::vector<TrajectoryPoint> trajectory =
      MeasureTrajectory(*service, rows, &failures);
  PrintTrajectory(trajectory);
  if (ml::FlatForest::SimdSupported() &&
      trajectory[2].speedup_vs_classic < 5.0) {
    // Report-only outside the checked-in JSON: sanitizer builds and busy
    // CI hosts distort relative timings, so the smoke does not hard-fail
    // on the 5x target.
    std::printf("note: flat_simd below the 5x target on this run\n");
  }
  if (const char* path = std::getenv("HOTSPOT_BENCH_JSON")) {
    if (!WriteTrajectoryJson(path, *service, trajectory)) {
      std::fprintf(stderr, "FAIL: could not write %s\n", path);
      ++failures;
    } else {
      std::printf("trajectory: %s\n", path);
    }
  }
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
}  // namespace hotspot

int main(int argc, char** argv) {
  if (std::getenv("HOTSPOT_MICRO_SMOKE") != nullptr) {
    return hotspot::Smoke();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Bench mode exports the same trajectory JSON when asked, from a fresh
  // measurement (the BM_ numbers live in the benchmark report).
  if (const char* path = std::getenv("HOTSPOT_BENCH_JSON")) {
    std::unique_ptr<hotspot::ForecastService> service =
        hotspot::LoadService(nullptr);
    if (service != nullptr) {
      const hotspot::Matrix<float> rows =
          hotspot::Fixture().PredictRows(hotspot::kTrajectoryRows);
      int failures = 0;
      std::vector<hotspot::TrajectoryPoint> trajectory =
          hotspot::MeasureTrajectory(*service, rows, &failures);
      hotspot::PrintTrajectory(trajectory);
      hotspot::WriteTrajectoryJson(path, *service, trajectory);
      if (failures != 0) return 1;
    }
  }
  return 0;
}
