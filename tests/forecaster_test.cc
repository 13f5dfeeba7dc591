#include <cmath>

#include "gtest/gtest.h"
#include "core/evaluation.h"
#include "core/forecaster.h"
#include "core/task.h"
#include "monitor/fingerprint.h"
#include "serialize/bundle.h"
#include "stats/average_precision.h"
#include "tensor/temporal.h"
#include "util/rng.h"

namespace hotspot {
namespace {

/// A miniature deterministic study: 30 sectors over 8 weeks. Sectors with
/// an odd index are "hot-type": their first KPI sits at 0.8 (vs 0.2) and
/// their daily score/label is hot every day. The mapping from KPI to label
/// is exactly learnable, so classifier models should reach near-perfect
/// average precision.
class TinyStudy {
 public:
  TinyStudy() {
    const int n = 30;
    const int weeks = 8;
    const int hours = weeks * kHoursPerWeek;
    const int days = weeks * 7;
    Rng rng(5);

    Tensor3<float> kpis(n, hours, 2);
    hourly_scores_ = Matrix<float>(n, hours);
    for (int i = 0; i < n; ++i) {
      bool hot = i % 2 == 1;
      for (int j = 0; j < hours; ++j) {
        kpis(i, j, 0) =
            (hot ? 0.8f : 0.2f) + 0.02f * static_cast<float>(rng.Gaussian());
        kpis(i, j, 1) = static_cast<float>(rng.Gaussian());
        hourly_scores_(i, j) = hot ? 0.9f : 0.1f;
      }
    }
    Matrix<float> calendar(hours, 5, 0.0f);
    for (int j = 0; j < hours; ++j) {
      calendar(j, 0) = static_cast<float>(j % 24);
      calendar(j, 1) = static_cast<float>((j / 24) % 7);
    }
    daily_scores_ = IntegrateScores(hourly_scores_, Resolution::kDaily);
    Matrix<float> weekly = IntegrateScores(hourly_scores_,
                                           Resolution::kWeekly);
    daily_labels_ = Matrix<float>(n, days, 0.0f);
    for (int i = 1; i < n; i += 2) {
      for (int j = 0; j < days; ++j) daily_labels_(i, j) = 1.0f;
    }
    features_ = features::FeatureTensor::Build(
        kpis, calendar, hourly_scores_, daily_scores_, weekly,
        daily_labels_, {"signal", "noise"});
  }

  Forecaster MakeForecaster() const {
    return Forecaster(&features_, &daily_scores_, &daily_labels_);
  }

  const Matrix<float>& daily_labels() const { return daily_labels_; }

 private:
  features::FeatureTensor features_;
  Matrix<float> hourly_scores_;
  Matrix<float> daily_scores_;
  Matrix<float> daily_labels_;
};

ForecastConfig FastConfig(ModelKind model, int t, int h, int w) {
  ForecastConfig config;
  config.model = model;
  config.t = t;
  config.h = h;
  config.w = w;
  config.forest.num_trees = 10;
  config.gbdt.num_iterations = 10;
  return config;
}

TEST(ModelZoo, NamesAndPaperList) {
  EXPECT_STREQ(ModelName(ModelKind::kRfF1), "RF-F1");
  EXPECT_STREQ(ModelName(ModelKind::kAverage), "Average");
  EXPECT_STREQ(ModelName(ModelKind::kGbdt), "GBDT");
  std::vector<ModelKind> models = PaperModels();
  EXPECT_EQ(models.size(), 8u);
  EXPECT_EQ(models.front(), ModelKind::kRandom);
  EXPECT_EQ(models.back(), ModelKind::kRfF2);
}

TEST(ModelZoo, TargetNames) {
  EXPECT_STREQ(TargetName(TargetKind::kBeHotSpot), "be_hot_spot");
  EXPECT_STREQ(TargetName(TargetKind::kBecomeHotSpot), "become_hot_spot");
}

TEST(Forecaster, ExtractorSelection) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  EXPECT_EQ(forecaster.ExtractorFor(ModelKind::kAverage), nullptr);
  EXPECT_NE(forecaster.ExtractorFor(ModelKind::kTree), nullptr);
  EXPECT_EQ(forecaster.ExtractorFor(ModelKind::kTree),
            forecaster.ExtractorFor(ModelKind::kRfRaw));
  EXPECT_NE(forecaster.ExtractorFor(ModelKind::kRfF1),
            forecaster.ExtractorFor(ModelKind::kRfF2));
}

TEST(Forecaster, LabelsAtDay) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  std::vector<float> labels = forecaster.LabelsAtDay(10);
  ASSERT_EQ(labels.size(), 30u);
  EXPECT_FLOAT_EQ(labels[0], 0.0f);
  EXPECT_FLOAT_EQ(labels[1], 1.0f);
}

TEST(Forecaster, ClassifiersLearnTheSeparableRule) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  for (ModelKind model : {ModelKind::kTree, ModelKind::kRfRaw,
                          ModelKind::kRfF1, ModelKind::kRfF2,
                          ModelKind::kGbdt}) {
    ForecastResult result =
        forecaster.Run(FastConfig(model, 30, 2, 3));
    std::vector<float> labels = forecaster.LabelsAtDay(32);
    double ap = AveragePrecision(labels, result.predictions);
    EXPECT_GT(ap, 0.99) << ModelName(model);
  }
}

TEST(Forecaster, BaselinePredictionSizes) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  for (ModelKind model : {ModelKind::kRandom, ModelKind::kPersist,
                          ModelKind::kAverage, ModelKind::kTrend}) {
    ForecastResult result = forecaster.Run(FastConfig(model, 20, 1, 7));
    EXPECT_EQ(result.predictions.size(), 30u) << ModelName(model);
    EXPECT_TRUE(result.importances.empty());
  }
}

TEST(Forecaster, ClassifierProbabilitiesInUnitInterval) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  ForecastResult result =
      forecaster.Run(FastConfig(ModelKind::kRfF1, 25, 3, 5));
  for (float p : result.predictions) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(Forecaster, ImportancesMatchFeatureDim) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  ForecastResult result =
      forecaster.Run(FastConfig(ModelKind::kRfRaw, 25, 3, 2));
  const features::FeatureExtractor* extractor =
      forecaster.ExtractorFor(ModelKind::kRfRaw);
  EXPECT_EQ(static_cast<int>(result.importances.size()),
            extractor->OutputDim(2, 11));
  EXPECT_EQ(result.feature_dim, extractor->OutputDim(2, 11));
  double sum = 0.0;
  for (double imp : result.importances) sum += imp;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Forecaster, DeterministicAcrossRuns) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  ForecastResult a = forecaster.Run(FastConfig(ModelKind::kRfF1, 30, 2, 3));
  ForecastResult b = forecaster.Run(FastConfig(ModelKind::kRfF1, 30, 2, 3));
  EXPECT_EQ(a.predictions, b.predictions);
  ForecastResult r1 = forecaster.Run(FastConfig(ModelKind::kRandom, 30, 2, 3));
  ForecastResult r2 = forecaster.Run(FastConfig(ModelKind::kRandom, 30, 2, 3));
  EXPECT_EQ(r1.predictions, r2.predictions);
}

TEST(Forecaster, TrainingDaysPoolingRuns) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  ForecastConfig config = FastConfig(ModelKind::kTree, 30, 2, 3);
  config.training_days = 4;
  ForecastResult result = forecaster.Run(config);
  std::vector<float> labels = forecaster.LabelsAtDay(32);
  EXPECT_GT(AveragePrecision(labels, result.predictions), 0.99);
}

TEST(Forecaster, FingerprintsSpanThePooledTrainingWindows) {
  // The fingerprints sketch the hours [first_hour, last_hour) that the
  // pooled training windows cover: from the oldest pooled label day's
  // window start to day t - h.
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  // Same-weekday pooling at t = 20, h = 1, w = 7: label days 20 and 13
  // fit, day 6's window would start before day 0, so pooling stops there.
  ForecastConfig gbdt = FastConfig(ModelKind::kGbdt, 20, 1, 7);
  gbdt.training_days = 5;
  gbdt.training_day_stride = 7;
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(gbdt);
  ASSERT_NE(bundle->fingerprints, nullptr);
  EXPECT_EQ(bundle->fingerprints->first_hour, kHoursPerDay * (13 - 1 - 7));
  EXPECT_EQ(bundle->fingerprints->last_hour, kHoursPerDay * (20 - 1));
  // A Tree pools tree_training_days label days, not training_days.
  ForecastConfig tree = FastConfig(ModelKind::kTree, 30, 2, 3);
  tree.training_days = 6;
  tree.tree_training_days = 1;
  bundle = forecaster.TrainBundle(tree);
  ASSERT_NE(bundle->fingerprints, nullptr);
  EXPECT_EQ(bundle->fingerprints->first_hour, kHoursPerDay * (30 - 2 - 3));
  EXPECT_EQ(bundle->fingerprints->last_hour, kHoursPerDay * (30 - 2));
}

TEST(Forecaster, RejectsInfeasibleWindows) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  EXPECT_DEATH(forecaster.Run(FastConfig(ModelKind::kAverage, 2, 5, 7)),
               "Check failed");
  EXPECT_DEATH(forecaster.Run(FastConfig(ModelKind::kAverage, 999, 1, 1)),
               "Check failed");
}

TEST(Evaluation, PerfectModelBeatsRandomByLargeLift) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  ForecastConfig base = FastConfig(ModelKind::kRfF1, 0, 0, 0);
  EvaluationRunner runner(&forecaster, base);
  CellResult cell = runner.Evaluate(ModelKind::kRfF1, 30, 2, 3);
  EXPECT_NEAR(cell.average_precision, 1.0, 1e-6);
  EXPECT_GT(cell.lift, 1.5);
  CellResult random_cell = runner.Evaluate(ModelKind::kRandom, 30, 2, 3);
  // Half the sectors are positive: random AP concentrates near 0.5, so
  // the random model's lift is near 1.
  EXPECT_NEAR(random_cell.lift, 1.0, 0.5);
}

TEST(Evaluation, RandomApCachedPerDay) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  EvaluationRunner runner(&forecaster, ForecastConfig{});
  double first = runner.RandomAp(30, 2);
  double second = runner.RandomAp(30, 2);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_GT(first, 0.3);
  EXPECT_LT(first, 0.8);
}

TEST(Evaluation, SetRandomRepeatsDropsStaleCache) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  EvaluationRunner runner(&forecaster, ForecastConfig{});
  // Warm the ψ(F₀) cache with the default repeat count...
  double warm = runner.RandomAp(30, 2);
  // ...then change the repeat count. The cached value was computed with
  // the old count and must be recomputed, not served stale.
  runner.set_random_repeats(1);
  double after = runner.RandomAp(30, 2);
  EXPECT_NE(after, warm);

  // A fresh runner configured with 1 repeat up front agrees exactly with
  // the post-setter value — proof the cache was actually cleared.
  EvaluationRunner fresh(&forecaster, ForecastConfig{});
  fresh.set_random_repeats(1);
  EXPECT_DOUBLE_EQ(fresh.RandomAp(30, 2), after);
}

TEST(Evaluation, AggregateLiftOverT) {
  std::vector<CellResult> cells;
  for (int t : {10, 11, 12}) {
    CellResult cell;
    cell.model = ModelKind::kAverage;
    cell.t = t;
    cell.h = 1;
    cell.w = 7;
    cell.lift = 10.0 + t - 10;
    cells.push_back(cell);
  }
  MeanCi ci = AggregateLiftOverT(cells, ModelKind::kAverage, 1, 7);
  EXPECT_DOUBLE_EQ(ci.mean, 11.0);
  EXPECT_EQ(ci.count, 3);
  // Different (h, w) excluded.
  MeanCi empty = AggregateLiftOverT(cells, ModelKind::kAverage, 2, 7);
  EXPECT_EQ(empty.count, 0);
}

TEST(Evaluation, AggregateDeltaPairsByT) {
  std::vector<CellResult> cells;
  for (int t : {1, 2}) {
    CellResult reference;
    reference.model = ModelKind::kAverage;
    reference.t = t;
    reference.h = 1;
    reference.w = 7;
    reference.lift = 10.0;
    cells.push_back(reference);
    CellResult model;
    model.model = ModelKind::kRfF1;
    model.t = t;
    model.h = 1;
    model.w = 7;
    model.lift = 11.4;
    cells.push_back(model);
  }
  MeanCi delta = AggregateDeltaOverT(cells, ModelKind::kRfF1,
                                     ModelKind::kAverage, 1, 7);
  EXPECT_NEAR(delta.mean, 14.0, 1e-9);
  EXPECT_EQ(delta.count, 2);
}

TEST(Evaluation, TemporalStabilityPValuesInRange) {
  // ψ values drawn from the same distribution on both sides of the split:
  // p-values must be in (0, 1] and mostly large.
  Rng rng(6);
  std::vector<CellResult> cells;
  for (int t = 52; t <= 87; ++t) {
    CellResult cell;
    cell.model = ModelKind::kAverage;
    cell.t = t;
    cell.h = 1;
    cell.w = 7;
    cell.average_precision = 0.5 + 0.05 * rng.Gaussian();
    cells.push_back(cell);
  }
  std::vector<double> p_values = TemporalStabilityPValues(cells, 69);
  ASSERT_EQ(p_values.size(), 1u);
  EXPECT_GT(p_values[0], 0.01);
  EXPECT_LE(p_values[0], 1.0);
}

TEST(ParameterGrid, PaperGridMatchesTable3) {
  ParameterGrid grid = ParameterGrid::Paper();
  EXPECT_EQ(grid.models.size(), 8u);
  EXPECT_EQ(grid.t_values.size(), 36u);
  EXPECT_EQ(grid.t_values.front(), 52);
  EXPECT_EQ(grid.t_values.back(), 87);
  EXPECT_EQ(grid.h_values.size(), 15u);
  EXPECT_EQ(grid.h_values.back(), 29);
  EXPECT_EQ(grid.w_values.size(), 8u);
  EXPECT_EQ(grid.w_values.back(), 21);
  EXPECT_EQ(grid.NumCells(), 8LL * 36 * 15 * 8);
}

TEST(ParameterGrid, SubsampledStridesT) {
  ParameterGrid grid = ParameterGrid::Subsampled(6, {1, 7}, {7});
  EXPECT_EQ(grid.t_values.size(), 6u);
  EXPECT_EQ(grid.h_values, (std::vector<int>{1, 7}));
  EXPECT_EQ(grid.w_values, (std::vector<int>{7}));
}

TEST(Sweep, RunsEveryCell) {
  TinyStudy study;
  Forecaster forecaster = study.MakeForecaster();
  ForecastConfig base;
  base.forest.num_trees = 4;
  EvaluationRunner runner(&forecaster, base);
  ParameterGrid grid;
  grid.models = {ModelKind::kAverage, ModelKind::kPersist};
  grid.t_values = {20, 25};
  grid.h_values = {1, 2};
  grid.w_values = {3};
  std::vector<CellResult> cells = RunSweep(&runner, grid);
  EXPECT_EQ(cells.size(), 8u);
  for (const CellResult& cell : cells) {
    EXPECT_GT(cell.average_precision, 0.0);
  }
}

}  // namespace
}  // namespace hotspot
