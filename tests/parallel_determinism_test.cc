// Determinism regression tests for the parallel execution layer: every
// parallel site must produce bitwise-identical output at any thread count
// (the serial path at HOTSPOT_NUM_THREADS=1 is the reference). These tests
// run the GBDT, the random forest, feature extraction, a small end-to-end
// study and an evaluation sweep over the shared thread-count matrix
// (tests/thread_matrix.h; override with HOTSPOT_TEST_THREAD_MATRIX) and
// compare exactly.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/study.h"
#include "core/task.h"
#include "gtest/gtest.h"
#include "obs/pipeline_context.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "scoped_num_threads.h"
#include "thread_matrix.h"
#include "util/rng.h"

namespace hotspot {
namespace {

/// Exact comparison that treats NaN == NaN as equal (empty-label days can
/// legitimately yield NaN average precision).
void ExpectSameDouble(double a, double b, const std::string& what) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b) << what;
}

ml::Dataset MakeDataset(int n, int d, uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  data.features = Matrix<float>(n, d);
  data.labels.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    float* row = data.features.Row(i);
    double signal = 0.0;
    for (int f = 0; f < d; ++f) {
      if (rng.Bernoulli(0.05)) {
        row[f] = MissingValue();
        continue;
      }
      row[f] = static_cast<float>(rng.Gaussian());
      if (f < 3) signal += row[f];
    }
    data.labels[static_cast<size_t>(i)] =
        signal + rng.Gaussian() > 0.5 ? 1.0f : 0.0f;
  }
  data.weights = ml::BalancedWeights(data.labels);
  return data;
}

struct GbdtOutputs {
  std::vector<double> losses;
  std::vector<double> importances;
  std::vector<double> predictions;
};

GbdtOutputs FitGbdt(const ml::Dataset& data) {
  ml::GbdtConfig config;
  config.num_iterations = 25;
  config.num_leaves = 15;
  config.max_bins = 16;
  config.feature_fraction = 0.7;  // exercises the Rng paths
  config.bagging_fraction = 0.7;
  config.seed = 7;
  ml::Gbdt model(config);
  model.Fit(data);
  GbdtOutputs outputs;
  outputs.losses = model.training_loss();
  outputs.importances = model.FeatureImportances();
  for (int i = 0; i < data.num_instances(); ++i) {
    outputs.predictions.push_back(model.PredictRaw(data.features.Row(i)));
  }
  return outputs;
}

TEST(ParallelDeterminism, GbdtBitwiseIdenticalAcrossThreadCounts) {
  ml::Dataset data = MakeDataset(400, 12, 2024);
  ScopedNumThreads serial("1");
  GbdtOutputs reference = FitGbdt(data);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    GbdtOutputs outputs = FitGbdt(data);
    // Exact (==) comparisons throughout: the contract is bitwise identity.
    EXPECT_EQ(outputs.losses, reference.losses) << threads << " threads";
    EXPECT_EQ(outputs.importances, reference.importances)
        << threads << " threads";
    EXPECT_EQ(outputs.predictions, reference.predictions)
        << threads << " threads";
  });
}

TEST(ParallelDeterminism, FeatureBinnerIdenticalAcrossThreadCounts) {
  ml::Dataset data = MakeDataset(300, 9, 77);
  std::vector<std::vector<float>> reference;
  {
    ScopedNumThreads serial("1");
    ml::FeatureBinner binner;
    binner.Fit(data.features, 32);
    for (int f = 0; f < data.num_features(); ++f) {
      reference.push_back(binner.Thresholds(f));
    }
  }
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ml::FeatureBinner binner;
    binner.Fit(data.features, 32);
    for (int f = 0; f < data.num_features(); ++f) {
      EXPECT_EQ(binner.Thresholds(f), reference[static_cast<size_t>(f)])
          << "feature " << f << " at " << threads << " threads";
    }
  });
}

std::vector<double> FitForest(const ml::Dataset& data) {
  ml::ForestConfig config;
  config.num_trees = 12;
  config.seed = 5;
  ml::RandomForest forest(config);
  forest.Fit(data);
  std::vector<double> outputs;
  for (int i = 0; i < data.num_instances(); ++i) {
    outputs.push_back(forest.PredictProba(data.features.Row(i)));
  }
  std::vector<double> importances = forest.FeatureImportances();
  outputs.insert(outputs.end(), importances.begin(), importances.end());
  return outputs;
}

TEST(ParallelDeterminism, RandomForestBitwiseIdenticalAcrossThreadCounts) {
  ml::Dataset data = MakeDataset(250, 10, 11);
  ScopedNumThreads serial("1");
  std::vector<double> reference = FitForest(data);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    EXPECT_EQ(FitForest(data), reference) << threads << " threads";
  });
}

// Per-unit RNG audit: refitting with the same seed must be bit-identical,
// which fails if any parallel unit shared a mutable Rng with another. The
// count is intentionally pinned high (not the shared matrix): the audit
// needs real parallelism, not a sweep.
TEST(ParallelDeterminism, RefitSameSeedIsBitIdentical) {
  ml::Dataset data = MakeDataset(250, 10, 13);
  ScopedNumThreads env("8");
  EXPECT_EQ(FitForest(data), FitForest(data));
  GbdtOutputs first = FitGbdt(data);
  GbdtOutputs second = FitGbdt(data);
  EXPECT_EQ(first.losses, second.losses);
  EXPECT_EQ(first.predictions, second.predictions);
}

simnet::GeneratorConfig SmallNetworkConfig() {
  simnet::GeneratorConfig config;
  config.topology.target_sectors = 36;
  config.topology.num_cities = 2;
  config.weeks = 10;
  config.seed = 4242;
  return config;
}

struct StudyOutputs {
  std::vector<float> hourly_scores;
  std::vector<float> daily_labels;
  std::vector<float> become_labels;
  std::vector<float> features;
};

StudyOutputs BuildSmallStudy(const simnet::SyntheticNetwork& network) {
  Study study = BuildStudy(StudyInput(network), StudyOptions{});
  StudyOutputs outputs;
  outputs.hourly_scores.assign(study.scores.hourly.data().begin(),
                               study.scores.hourly.data().end());
  outputs.daily_labels.assign(study.daily_labels.data().begin(),
                              study.daily_labels.data().end());
  outputs.become_labels.assign(study.become_labels.data().begin(),
                               study.become_labels.data().end());
  outputs.features.assign(study.features.tensor().data().begin(),
                          study.features.tensor().data().end());
  return outputs;
}

TEST(ParallelDeterminism, StudyPipelineIdenticalAcrossThreadCounts) {
  simnet::SyntheticNetwork network =
      simnet::GenerateNetwork(SmallNetworkConfig());
  ScopedNumThreads serial("1");
  StudyOutputs reference = BuildSmallStudy(network);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    StudyOutputs outputs = BuildSmallStudy(network);
    EXPECT_EQ(outputs.hourly_scores, reference.hourly_scores)
        << threads << " threads";
    EXPECT_EQ(outputs.daily_labels, reference.daily_labels)
        << threads << " threads";
    EXPECT_EQ(outputs.become_labels, reference.become_labels)
        << threads << " threads";
    EXPECT_EQ(outputs.features, reference.features) << threads << " threads";
  });
}

std::vector<CellResult> RunSmallSweep(const Study& study,
                                      obs::PipelineContext* context =
                                          nullptr) {
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig base;
  base.seed = 31;
  base.forest.num_trees = 6;
  EvaluationRunner runner(&forecaster, base);
  runner.set_random_repeats(3);
  ParameterGrid grid;
  grid.models = {ModelKind::kPersist, ModelKind::kAverage,
                 ModelKind::kRfRaw};
  grid.t_values = {50, 52};
  grid.h_values = {1, 2};
  grid.w_values = {3};
  obs::PipelineContext::ScopedInstall install(context);
  return RunSweep(&runner, grid, SweepOptions{});
}

void ExpectSameCells(const std::vector<CellResult>& cells,
                     const std::vector<CellResult>& reference,
                     const std::string& label) {
  ASSERT_EQ(cells.size(), reference.size()) << label;
  for (size_t c = 0; c < cells.size(); ++c) {
    const std::string what = "cell " + std::to_string(c) + " " + label;
    EXPECT_EQ(static_cast<int>(cells[c].model),
              static_cast<int>(reference[c].model))
        << what;
    EXPECT_EQ(cells[c].t, reference[c].t) << what;
    EXPECT_EQ(cells[c].h, reference[c].h) << what;
    EXPECT_EQ(cells[c].w, reference[c].w) << what;
    ExpectSameDouble(cells[c].average_precision,
                     reference[c].average_precision, what);
    ExpectSameDouble(cells[c].lift, reference[c].lift, what);
  }
}

TEST(ParallelDeterminism, EvaluationSweepIdenticalAcrossThreadCounts) {
  simnet::SyntheticNetwork network =
      simnet::GenerateNetwork(SmallNetworkConfig());
  Study study = BuildStudy(StudyInput(std::move(network)), StudyOptions{});
  ScopedNumThreads serial("1");
  std::vector<CellResult> reference = RunSmallSweep(study);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    std::vector<CellResult> cells = RunSmallSweep(study);
    ExpectSameCells(cells, reference, "at " + threads + " threads");
  });
}

// Observability is read-only with respect to the computation: attaching a
// live PipelineContext (spans, counters, histograms all firing) must not
// change a single result bit, at any thread count.
TEST(ParallelDeterminism, SweepIdenticalWithLivePipelineContext) {
  simnet::SyntheticNetwork network =
      simnet::GenerateNetwork(SmallNetworkConfig());
  Study study = BuildStudy(StudyInput(std::move(network)), StudyOptions{});
  ScopedNumThreads serial("1");
  std::vector<CellResult> reference = RunSmallSweep(study);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    obs::PipelineContext context;
    std::vector<CellResult> cells = RunSmallSweep(study, &context);
    ExpectSameCells(cells, reference,
                    "with context at " + threads + " threads");
    // The context actually observed the sweep (it was not a no-op).
    EXPECT_GT(context.metrics().counter("eval/cells").Total(), 0u)
        << threads << " threads";
    EXPECT_FALSE(context.trace().Aggregate().empty())
        << threads << " threads";
  });
}

}  // namespace
}  // namespace hotspot
