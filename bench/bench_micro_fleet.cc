// google-benchmark microbenchmarks of the sharded serving fleet:
// end-to-end rows/sec through fleet::ForecastFleet at 1/2/4/8 shards
// (the scale-out curve — each shard is an independent ServingPipeline
// over its own sector slice, one worker thread each), plus the RCU
// hot-swap cost under live load.
//
// HOTSPOT_MICRO_SMOKE=1 switches to a seconds-scale correctness smoke
// (the ctest registration, label `fleet`): streams a small study through
// a fleet under a live obs::PipelineContext, cross-checks the fleet/
// routing counters against the run's ground truth, re-verifies the
// fleet-vs-batch bitwise contract, sweeps the shard counts for the
// throughput curve, and times PromoteBundle on every shard mid-stream
// (the swap-under-load latency spike). With HOTSPOT_BENCH_JSON=<path>
// the smoke exports the trajectory — the checked-in
// BENCH_micro_fleet.json. With HOTSPOT_OBS_JSON=<path> either mode
// exports the metrics snapshot.
#include <benchmark/benchmark.h>

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
#include "fleet/forecast_fleet.h"
#include "host_fingerprint.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "serialize/bundle.h"
#include "simnet/generator.h"
#include "util/stopwatch.h"

namespace hotspot {
namespace {

using fleet::FleetOptions;
using fleet::FleetPrediction;
using fleet::ForecastFleet;

/// The end-to-end fixture: a trained GBDT bundle over a small synthetic
/// study (the pipeline bench recipe); every fleet run is stamped from a
/// clone of the same bundle, so runs are comparable and the batch
/// reference is exact.
struct FleetFixture {
  Study study;
  std::unique_ptr<serialize::ForecastBundle> bundle;

  FleetFixture() {
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
    bundle = forecaster.TrainBundle(config);
    bundle->score = study.score_config;
  }

  FleetOptions Options(int num_shards) const {
    FleetOptions options;
    options.num_shards = num_shards;
    options.serving.num_sectors = study.num_sectors();
    options.serving.num_kpis = study.network.num_kpis();
    options.serving.calendar = &study.network.calendar_matrix;
    options.serving.score = study.score_config;
    options.serving.history_weeks = study.num_weeks() + 1;
    return options;
  }
};

FleetFixture& Fixture() {
  static FleetFixture* fixture = new FleetFixture();
  return *fixture;
}

/// One full fleet run: every KPI row hour-major through the fleet (rows
/// the admission controller defers are re-offered — the bench measures a
/// lossless feed), Finish, predictions out. When `promote_at_hour` >= 0,
/// promotes a clone of the fixture bundle onto every shard at that hour
/// and reports the slowest per-shard swap in `max_promote_seconds` — the
/// latency spike a live deployment pays mid-stream. Returns rows pushed.
int64_t FleetServeOnce(FleetFixture& fixture, int num_shards,
                       int promote_at_hour,
                       std::vector<FleetPrediction>* served,
                       double* max_promote_seconds) {
  ForecastFleet fleet(serialize::CloneBundle(*fixture.bundle),
                      fixture.Options(num_shards));
  const Tensor3<float>& kpis = fixture.study.network.kpis;
  int64_t rows = 0;
  for (int j = 0; j < kpis.dim1(); ++j) {
    if (j == promote_at_hour) {
      double slowest = 0.0;
      for (int shard = 0; shard < fleet.num_shards(); ++shard) {
        if (fleet.shard_sectors(shard).empty()) continue;
        Stopwatch watch;
        serialize::Status status = fleet.PromoteBundle(
            shard, serialize::CloneBundle(*fixture.bundle));
        const double seconds = watch.ElapsedSeconds();
        if (!status.ok) {
          std::fprintf(stderr, "promote failed: %s\n",
                       status.error.c_str());
          std::abort();
        }
        if (seconds > slowest) slowest = seconds;
      }
      if (max_promote_seconds != nullptr) *max_promote_seconds = slowest;
    }
    for (int i = 0; i < kpis.dim0(); ++i) {
      while (fleet.Push(i, j, kpis.Slice(i, j), kpis.dim2()) ==
             ForecastFleet::PushVerdict::kRejectedOverload) {
        std::this_thread::yield();
      }
      ++rows;
    }
  }
  fleet.Finish();
  if (served != nullptr) *served = fleet.TakePredictions();
  return rows;
}

void BM_FleetServe(benchmark::State& state) {
  FleetFixture& fixture = Fixture();
  const int num_shards = static_cast<int>(state.range(0));
  int64_t rows = 0, predictions = 0;
  for (auto _ : state) {
    std::vector<FleetPrediction> served;
    rows += FleetServeOnce(fixture, num_shards, -1, &served, nullptr);
    for (const FleetPrediction& p : served) {
      predictions += static_cast<int64_t>(p.scores.size());
    }
    benchmark::DoNotOptimize(predictions);
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_FleetServe)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_FleetServeWithMidStreamSwap(benchmark::State& state) {
  FleetFixture& fixture = Fixture();
  const int num_shards = static_cast<int>(state.range(0));
  const int promote_at = fixture.study.network.num_hours() / 2;
  int64_t rows = 0;
  double worst_promote = 0.0;
  for (auto _ : state) {
    double promote_seconds = 0.0;
    rows += FleetServeOnce(fixture, num_shards, promote_at, nullptr,
                           &promote_seconds);
    if (promote_seconds > worst_promote) worst_promote = promote_seconds;
  }
  state.SetItemsProcessed(rows);
  state.counters["max_promote_seconds"] = worst_promote;
}
BENCHMARK(BM_FleetServeWithMidStreamSwap)->Arg(2)->Arg(4);

/// One shard-count point of the smoke's throughput curve.
struct SweepPoint {
  int num_shards = 0;
  int64_t rows = 0;
  double seconds = 0.0;
  double promote_seconds = 0.0;  ///< slowest mid-stream per-shard swap
};

bool WriteFleetJson(const std::string& path, const FleetFixture& fixture,
                    size_t batches, const std::vector<SweepPoint>& sweep) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\n");
  std::fprintf(file, "  \"bench\": \"bench_micro_fleet\",\n");
  std::fprintf(file, "  \"trajectory\": \"sharded_fleet_serving\",\n");
  bench::WriteHostJson(file);
  std::fprintf(file, "  \"sectors\": %d,\n", fixture.study.num_sectors());
  std::fprintf(file, "  \"hours\": %d,\n",
               fixture.study.network.num_hours());
  std::fprintf(file, "  \"prediction_batches\": %zu,\n", batches);
  std::fprintf(file, "  \"shard_sweep\": [\n");
  for (size_t s = 0; s < sweep.size(); ++s) {
    const SweepPoint& p = sweep[s];
    std::fprintf(file,
                 "    {\"shards\": %d, \"rows\": %lld, \"seconds\": %.4f, "
                 "\"rows_per_sec\": %.0f, "
                 "\"mid_stream_promote_seconds\": %.6f}%s\n",
                 p.num_shards, static_cast<long long>(p.rows), p.seconds,
                 static_cast<double>(p.rows) / p.seconds,
                 p.promote_seconds, s + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n");
  std::fprintf(file,
               "  \"contract\": \"fleet output bitwise-identical to a "
               "single ForecastService for every shard count; PromoteBundle "
               "is an RCU pointer swap — in-flight batches finish on the "
               "old bundle, none dropped or torn\"\n");
  std::fprintf(file, "}\n");
  std::fclose(file);
  return true;
}

/// Seconds-scale smoke: the fleet end to end under a live context —
/// routing counters cross-checked against ground truth, the bitwise
/// fleet-vs-batch contract re-verified, the shard sweep + swap-under-load
/// trajectory exported.
int Smoke() {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  FleetFixture& fixture = Fixture();

  // Correctness leg: 2 shards, counters + bitwise contract.
  std::vector<FleetPrediction> served;
  Stopwatch watch;
  const int64_t rows = FleetServeOnce(fixture, 2, -1, &served, nullptr);
  const double seconds = watch.ElapsedSeconds();
  std::printf("fleet serve (2 shards): %lld rows -> %zu batches in %.3fs "
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
  // The retry loop re-offers shed rows, so offered can exceed routed by
  // the rejects; routed must equal the rows of the lossless feed.
  expect_counter("fleet/rows_routed", static_cast<uint64_t>(rows));
  expect_counter("fleet/rows_rejected_width", 0);
  expect_counter("fleet/rows_rejected_finished", 0);
  const uint64_t offered =
      context.metrics().counter("fleet/rows_offered").Total();
  const uint64_t rejected =
      context.metrics().counter("fleet/rows_rejected_overload").Total();
  if (offered != static_cast<uint64_t>(rows) + rejected) {
    std::fprintf(stderr,
                 "FAIL: offered (%llu) != routed (%llu) + rejected (%llu)\n",
                 static_cast<unsigned long long>(offered),
                 static_cast<unsigned long long>(rows),
                 static_cast<unsigned long long>(rejected));
    ++failures;
  }
  expect_counter("fleet/prediction_batches",
                 static_cast<uint64_t>(served.size()));
  uint64_t predictions = 0;
  for (const FleetPrediction& p : served) {
    predictions += static_cast<uint64_t>(p.scores.size());
  }
  expect_counter("fleet/predictions", predictions);

  // The contract the fleet exists to preserve: sharded scores == batch
  // scores of one service over the whole universe, bit for bit.
  ForecastService reference(serialize::CloneBundle(*fixture.bundle));
  for (const FleetPrediction& prediction : served) {
    std::vector<float> batch = reference.PredictAtDay(
        fixture.study.features, prediction.end_day);
    if (batch.size() != prediction.scores.size() ||
        std::memcmp(batch.data(), prediction.scores.data(),
                    batch.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "FAIL: fleet/batch mismatch at end day %d\n",
                   prediction.end_day);
      ++failures;
    }
  }
  if (served.empty() ||
      served.front().end_day != reference.window_days()) {
    std::fprintf(stderr, "FAIL: fleet serve produced no predictions\n");
    ++failures;
  }

  // Throughput curve + swap-under-load latency, one run per shard count.
  const int promote_at = fixture.study.network.num_hours() / 2;
  std::vector<SweepPoint> sweep;
  for (int num_shards : {1, 2, 4, 8}) {
    SweepPoint point;
    point.num_shards = num_shards;
    Stopwatch sweep_watch;
    point.rows = FleetServeOnce(fixture, num_shards, promote_at, nullptr,
                                &point.promote_seconds);
    point.seconds = sweep_watch.ElapsedSeconds();
    sweep.push_back(point);
    std::printf("shards=%d: %.0f rows/sec, mid-stream promote %.3fms\n",
                num_shards,
                static_cast<double>(point.rows) / point.seconds,
                1e3 * point.promote_seconds);
  }

  if (const char* path = std::getenv("HOTSPOT_BENCH_JSON")) {
    if (!WriteFleetJson(path, fixture, served.size(), sweep)) {
      std::fprintf(stderr, "FAIL: could not write %s\n", path);
      ++failures;
    } else {
      std::printf("bench trajectory: %s\n", path);
    }
  }
  if (const char* path = std::getenv("HOTSPOT_OBS_JSON")) {
    const obs::Snapshot snapshot = obs::TakeSnapshot(context);
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
  std::unique_ptr<hotspot::obs::PipelineContext> context;
  std::unique_ptr<hotspot::obs::PipelineContext::ScopedInstall> install;
  const char* json_path = std::getenv("HOTSPOT_OBS_JSON");
  if (json_path != nullptr) {
    context = std::make_unique<hotspot::obs::PipelineContext>();
    install = std::make_unique<hotspot::obs::PipelineContext::ScopedInstall>(
        context.get());
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (json_path != nullptr) {
    hotspot::obs::WriteSnapshotJson(hotspot::obs::TakeSnapshot(*context),
                                    json_path);
  }
  return 0;
}
