// Scaling bench for the parallel execution layer: wall time of the GBDT
// fit, the random-forest fit and feature-tensor extraction at 1/2/4/N
// threads (N = hardware_concurrency), plus a bitwise cross-check that
// every thread count produced the same output — the determinism contract
// the parallel_determinism_test pins down at unit scale. Record the table
// in EXPERIMENTS.md when the numbers change materially.
//
// HOTSPOT_MICRO_SMOKE=1 shrinks every workload to seconds and runs the
// whole bench under a live obs::PipelineContext — this is the ctest
// registration (bench_micro_parallel_smoke), which exercises the
// instrumented hot paths end to end and fails on any bitwise divergence.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "features/feature_tensor.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "tensor/temporal.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace hotspot::bench {
namespace {

ml::Dataset MakeDataset(int n, int d, uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  data.features = Matrix<float>(n, d);
  data.labels.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    float* row = data.features.Row(i);
    double signal = 0.0;
    for (int f = 0; f < d; ++f) {
      row[f] = static_cast<float>(rng.Gaussian());
      if (f < 4) signal += row[f];
    }
    data.labels[static_cast<size_t>(i)] =
        signal + rng.Gaussian() > 1.0 ? 1.0f : 0.0f;
  }
  data.weights = ml::BalancedWeights(data.labels);
  return data;
}

/// One timed workload: returns (seconds, checksum of the outputs).
struct Sample {
  double seconds = 0.0;
  double checksum = 0.0;
};

Sample TimeGbdtFit(const ml::Dataset& data, bool smoke) {
  ml::GbdtConfig config;
  config.num_iterations = smoke ? 8 : 40;
  config.num_leaves = smoke ? 15 : 31;
  config.max_bins = 32;
  config.seed = 3;
  Stopwatch watch;
  ml::Gbdt model(config);
  model.Fit(data);
  Sample sample;
  sample.seconds = watch.ElapsedSeconds();
  for (double loss : model.training_loss()) sample.checksum += loss;
  for (int i = 0; i < std::min(64, data.num_instances()); ++i) {
    sample.checksum += model.PredictRaw(data.features.Row(i));
  }
  return sample;
}

Sample TimeForestFit(const ml::Dataset& data, bool smoke) {
  ml::ForestConfig config;
  config.num_trees = smoke ? 6 : 24;
  config.seed = 3;
  Stopwatch watch;
  ml::RandomForest forest(config);
  forest.Fit(data);
  Sample sample;
  sample.seconds = watch.ElapsedSeconds();
  for (int i = 0; i < std::min(64, data.num_instances()); ++i) {
    sample.checksum += forest.PredictProba(data.features.Row(i));
  }
  return sample;
}

Sample TimeFeatureExtraction(int sectors, int weeks, int kpis) {
  const int hours = weeks * kHoursPerWeek;
  const int days = weeks * 7;
  Rng rng(17);
  Tensor3<float> kpi_tensor(sectors, hours, kpis);
  for (float& value : kpi_tensor.data()) {
    value = static_cast<float>(rng.Gaussian());
  }
  Matrix<float> calendar(hours, 5);
  for (float& value : calendar.data()) {
    value = static_cast<float>(rng.UniformDouble());
  }
  Matrix<float> hourly(sectors, hours);
  for (float& value : hourly.data()) {
    value = static_cast<float>(rng.UniformDouble());
  }
  Matrix<float> daily(sectors, days, 0.25f);
  Matrix<float> weekly(sectors, weeks, 0.25f);
  Matrix<float> labels(sectors, days, 0.0f);

  Stopwatch watch;
  features::FeatureTensor built = features::FeatureTensor::Build(
      kpi_tensor, calendar, hourly, daily, weekly, labels, {});
  Sample sample;
  sample.seconds = watch.ElapsedSeconds();
  const auto& data = built.tensor().data();
  for (size_t k = 0; k < data.size(); k += 101) {
    sample.checksum += data[k];
  }
  return sample;
}

std::vector<int> ThreadCounts() {
  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (hardware == 0) hardware = 1;
  std::vector<int> counts = {1, 2, 4, hardware};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

template <typename Workload>
bool Report(const char* name, const Workload& workload) {
  std::printf("\n%-22s %8s %12s %10s %10s\n", name, "threads", "wall [s]",
              "speedup", "bitwise");
  double serial_seconds = 0.0;
  double reference_checksum = 0.0;
  bool bitwise_ok = true;
  for (int threads : ThreadCounts()) {
    setenv("HOTSPOT_NUM_THREADS", std::to_string(threads).c_str(), 1);
    // Best of 3 runs to damp scheduler noise.
    Sample best;
    for (int rep = 0; rep < 3; ++rep) {
      Sample sample = workload();
      if (rep == 0 || sample.seconds < best.seconds) best = sample;
    }
    if (threads == 1) {
      serial_seconds = best.seconds;
      reference_checksum = best.checksum;
    }
    bool same = best.checksum == reference_checksum;
    bitwise_ok = bitwise_ok && same;
    std::printf("%-22s %8d %12.3f %9.2fx %10s\n", "", threads, best.seconds,
                serial_seconds / best.seconds, same ? "ok" : "DIFFERS");
  }
  unsetenv("HOTSPOT_NUM_THREADS");
  return bitwise_ok;
}

int Main() {
  const bool smoke = std::getenv("HOTSPOT_MICRO_SMOKE") != nullptr;
  std::printf("bench_micro_parallel: hot-path scaling vs HOTSPOT_NUM_THREADS "
              "(hardware_concurrency = %u%s)\n",
              std::thread::hardware_concurrency(),
              smoke ? ", smoke mode with live obs context" : "");

  // Smoke mode runs everything under a live context so the instrumented
  // paths (spans, counters, histograms) are exercised; the bitwise checks
  // then double as "observability does not perturb results" coverage.
  obs::PipelineContext context;
  std::unique_ptr<obs::PipelineContext::ScopedInstall> install;
  if (smoke) {
    install =
        std::make_unique<obs::PipelineContext::ScopedInstall>(&context);
  }

  bool ok = true;
  ml::Dataset gbdt_data =
      smoke ? MakeDataset(300, 12, 2025) : MakeDataset(4000, 60, 2025);
  ok = Report("gbdt_fit", [&] { return TimeGbdtFit(gbdt_data, smoke); }) &&
       ok;

  ml::Dataset forest_data =
      smoke ? MakeDataset(200, 10, 2026) : MakeDataset(1500, 40, 2026);
  ok = Report("forest_fit",
              [&] { return TimeForestFit(forest_data, smoke); }) &&
       ok;

  ok = Report("feature_tensor",
              [&] {
                return smoke ? TimeFeatureExtraction(60, 4, 6)
                             : TimeFeatureExtraction(500, 10, 12);
              }) &&
       ok;

  if (smoke) {
    install.reset();
    obs::Snapshot snapshot = obs::TakeSnapshot(context);
    std::printf("\nobs: %zu counters, %zu span paths recorded\n",
                snapshot.counters.size(), snapshot.spans.size());
    bool observed =
        !snapshot.spans.empty() &&
        context.metrics().counter("gbdt/trees_built").Total() > 0;
    std::printf("obs recorded the runs: %s\n", observed ? "ok" : "EMPTY");
    ok = ok && observed;
  }

  std::printf("\nnote: speedups require physical cores; on a 1-core host "
              "every row stays ~1.0x while `bitwise` must stay ok.\n");
  std::printf("result: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hotspot::bench

int main() { return hotspot::bench::Main(); }
