// Property-style parameterized suites: each TEST_P sweeps an invariant
// over many random seeds / shapes.
#include <cmath>

#include "gtest/gtest.h"
#include "features/handcrafted_features.h"
#include "features/percentile_features.h"
#include "features/raw_features.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/flat_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "serialize/binary_format.h"
#include "serialize/model_io.h"
#include "stats/average_precision.h"
#include "stats/ks_test.h"
#include "stats/percentile.h"
#include "tensor/temporal.h"
#include "util/rng.h"

namespace hotspot {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull, 55ull,
                                           89ull));

TEST_P(SeededProperty, AveragePrecisionBoundsAndExtremes) {
  Rng rng(GetParam());
  const int n = 50;
  std::vector<float> labels(n), scores(n);
  int positives = 0;
  for (int i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = rng.Bernoulli(0.2) ? 1.0f : 0.0f;
    if (labels[static_cast<size_t>(i)] != 0.0f) ++positives;
    scores[static_cast<size_t>(i)] = static_cast<float>(rng.UniformDouble());
  }
  if (positives == 0) {
    EXPECT_TRUE(std::isnan(AveragePrecision(labels, scores)));
    return;
  }
  double ap = AveragePrecision(labels, scores);
  EXPECT_GE(ap, 0.0);
  EXPECT_LE(ap, 1.0);
  // Scoring by the labels themselves is a perfect ranking.
  EXPECT_DOUBLE_EQ(AveragePrecision(labels, labels), 1.0);
}

TEST_P(SeededProperty, AveragePrecisionInvariantToMonotoneTransform) {
  Rng rng(GetParam() + 100);
  const int n = 40;
  std::vector<float> labels(n), scores(n), transformed(n);
  for (int i = 0; i < n; ++i) {
    labels[static_cast<size_t>(i)] = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
    scores[static_cast<size_t>(i)] =
        static_cast<float>(rng.Uniform(-2.0, 2.0));
    transformed[static_cast<size_t>(i)] =
        std::exp(scores[static_cast<size_t>(i)]);
  }
  double a = AveragePrecision(labels, scores);
  double b = AveragePrecision(labels, transformed);
  if (std::isnan(a)) {
    EXPECT_TRUE(std::isnan(b));
  } else {
    EXPECT_NEAR(a, b, 1e-12);
  }
}

TEST_P(SeededProperty, KsTestPValueRangeAndSelfComparison) {
  Rng rng(GetParam() + 200);
  std::vector<double> sample;
  for (int i = 0; i < 60; ++i) sample.push_back(rng.Gaussian());
  KsResult self = KolmogorovSmirnovTest(sample, sample);
  EXPECT_NEAR(self.statistic, 0.0, 1e-12);
  EXPECT_GT(self.p_value, 0.999);

  std::vector<double> other;
  for (int i = 0; i < 60; ++i) other.push_back(rng.Gaussian());
  KsResult result = KolmogorovSmirnovTest(sample, other);
  EXPECT_GE(result.statistic, 0.0);
  EXPECT_LE(result.statistic, 1.0);
  EXPECT_GE(result.p_value, 0.0);
  EXPECT_LE(result.p_value, 1.0);
}

TEST_P(SeededProperty, PercentilesAreMonotoneAndBounded) {
  Rng rng(GetParam() + 300);
  std::vector<float> values;
  for (int i = 0; i < 80; ++i) {
    values.push_back(static_cast<float>(rng.Gaussian(3.0, 2.0)));
  }
  std::vector<double> percentiles =
      Percentiles(values, {5.0, 25.0, 50.0, 75.0, 95.0});
  for (size_t p = 1; p < percentiles.size(); ++p) {
    EXPECT_LE(percentiles[p - 1], percentiles[p]);
  }
  EXPECT_GE(percentiles.front(), MinValue(values));
  EXPECT_LE(percentiles.back(), MaxValue(values));
}

TEST_P(SeededProperty, TrailingMeanBetweenMinAndMax) {
  Rng rng(GetParam() + 400);
  std::vector<float> series;
  for (int i = 0; i < 50; ++i) {
    series.push_back(static_cast<float>(rng.Uniform(-1.0, 5.0)));
  }
  for (int x = 0; x < 50; x += 7) {
    for (int y : {1, 3, 10}) {
      double mean = TrailingMean(x, y, series);
      EXPECT_GE(mean, MinValue(series) - 1e-6);
      EXPECT_LE(mean, MaxValue(series) + 1e-6);
    }
  }
}

TEST_P(SeededProperty, IntegrationPreservesGrandMean) {
  Rng rng(GetParam() + 500);
  Matrix<float> hourly(3, 2 * kHoursPerWeek);
  for (float& v : hourly.data()) {
    v = static_cast<float>(rng.UniformDouble());
  }
  Matrix<float> daily = IntegrateScores(hourly, Resolution::kDaily);
  for (int i = 0; i < 3; ++i) {
    double hourly_mean = 0.0;
    for (int j = 0; j < hourly.cols(); ++j) hourly_mean += hourly(i, j);
    hourly_mean /= hourly.cols();
    double daily_mean = 0.0;
    for (int j = 0; j < daily.cols(); ++j) daily_mean += daily(i, j);
    daily_mean /= daily.cols();
    EXPECT_NEAR(hourly_mean, daily_mean, 1e-4);
  }
}

TEST_P(SeededProperty, BalancedWeightsAlwaysEqualizeClasses) {
  Rng rng(GetParam() + 600);
  std::vector<float> labels;
  for (int i = 0; i < 30; ++i) {
    labels.push_back(rng.Bernoulli(0.25) ? 1.0f : 0.0f);
  }
  std::vector<double> weights = ml::BalancedWeights(labels);
  double positive = 0.0, negative = 0.0;
  bool has_both = false;
  for (size_t i = 0; i < labels.size(); ++i) {
    (labels[i] != 0.0f ? positive : negative) += weights[i];
  }
  has_both = positive > 0.0 && negative > 0.0;
  if (has_both) {
    EXPECT_NEAR(positive, negative, 1e-9);
    EXPECT_NEAR(positive + negative, static_cast<double>(labels.size()),
                1e-9);
  }
}

TEST_P(SeededProperty, TreePredictionsAreLeafProbabilities) {
  Rng rng(GetParam() + 700);
  ml::Dataset data;
  const int n = 120;
  data.features = Matrix<float>(n, 4);
  data.labels.resize(n);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 4; ++k) {
      data.features(i, k) = static_cast<float>(rng.Gaussian());
    }
    data.labels[static_cast<size_t>(i)] =
        rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  }
  data.weights = ml::BalancedWeights(data.labels);
  ml::TreeConfig config;
  config.seed = GetParam();
  config.min_weight_fraction = 0.05;
  ml::DecisionTree tree(config);
  tree.Fit(data);
  for (int i = 0; i < n; ++i) {
    double p = tree.PredictProba(data.features.Row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  std::vector<double> importances = tree.FeatureImportances();
  double sum = 0.0;
  for (double imp : importances) {
    EXPECT_GE(imp, 0.0);
    sum += imp;
  }
  EXPECT_TRUE(sum == 0.0 || std::abs(sum - 1.0) < 1e-9);
}

TEST_P(SeededProperty, GbdtBinnerPartitionsDomain) {
  Rng rng(GetParam() + 800);
  Matrix<float> features(60, 2);
  for (float& v : features.data()) {
    v = static_cast<float>(rng.Uniform(-10.0, 10.0));
  }
  ml::FeatureBinner binner;
  binner.Fit(features, 16);
  for (int f = 0; f < 2; ++f) {
    // Every training value lands in a finite bin within range.
    for (int i = 0; i < 60; ++i) {
      int bin = binner.Bin(f, features(i, f));
      EXPECT_GE(bin, 1);
      EXPECT_LT(bin, binner.NumBins(f));
    }
    // Thresholds strictly increasing.
    const std::vector<float>& cuts = binner.Thresholds(f);
    for (size_t c = 1; c < cuts.size(); ++c) {
      EXPECT_LT(cuts[c - 1], cuts[c]);
    }
  }
}

TEST_P(SeededProperty, FlatForestCompileIsAPureFunctionOfTheModel) {
  // FlatForest::Compile must be a pure function of the source model: no
  // pointer-derived ordering, no global state. Two independent compiles
  // of the same trained model (and of a serialize round-trip copy, which
  // shares no memory with the original) must compile to equal forests.
  Rng rng(GetParam() + 1000);
  ml::Dataset data;
  const int n = 150;
  const int d = 6;
  data.features = Matrix<float>(n, d);
  data.labels.resize(n);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < d; ++k) {
      data.features(i, k) = rng.Bernoulli(0.05)
                                ? MissingValue()
                                : static_cast<float>(rng.Gaussian());
    }
    data.labels[static_cast<size_t>(i)] = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  }
  data.weights = ml::BalancedWeights(data.labels);

  auto expect_pure = [&](const ml::BinaryClassifier& model,
                         const char* what) {
    ml::FlatForest first = ml::FlatForest::Compile(model);
    EXPECT_TRUE(first == ml::FlatForest::Compile(model))
        << what << ": two compiles differ";
    EXPECT_FALSE(first.empty()) << what;
    return first;
  };

  ml::GbdtConfig gbdt_config;
  gbdt_config.num_iterations = 6;
  gbdt_config.num_leaves = 5;
  gbdt_config.max_bins = 16;
  gbdt_config.seed = GetParam();
  ml::Gbdt gbdt(gbdt_config);
  gbdt.Fit(data);
  ml::FlatForest gbdt_flat = expect_pure(gbdt, "gbdt");
  {
    serialize::ByteWriter writer;
    serialize::ModelAccess::EncodeGbdt(gbdt, &writer);
    serialize::ByteReader reader(writer.bytes().data(),
                                 writer.bytes().size());
    std::unique_ptr<ml::Gbdt> copy =
        serialize::ModelAccess::DecodeGbdt(&reader);
    ASSERT_NE(copy, nullptr) << reader.error();
    EXPECT_TRUE(ml::FlatForest::Compile(*copy) == gbdt_flat)
        << "gbdt: round-trip copy compiles differently";
  }

  ml::ForestConfig forest_config;
  forest_config.num_trees = 5;
  forest_config.seed = GetParam();
  ml::RandomForest forest(forest_config);
  forest.Fit(data);
  expect_pure(forest, "forest");

  ml::TreeConfig tree_config;
  tree_config.min_weight_fraction = 0.05;
  tree_config.seed = GetParam();
  ml::DecisionTree tree(tree_config);
  tree.Fit(data);
  expect_pure(tree, "tree");
}

TEST_P(SeededProperty, RngUniformIntIsUnbiasedAcrossRange) {
  Rng rng(GetParam() + 900);
  const int kBuckets = 7;
  std::vector<int> counts(kBuckets, 0);
  const int kSamples = 7000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<size_t>(rng.UniformInt(0, kBuckets - 1))];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, kSamples / kBuckets, 150);
  }
}

class WindowProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, WindowProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 10, 14, 21),
                       ::testing::Values(1, 4, 11)));

TEST_P(WindowProperty, ExtractorDimsConsistent) {
  auto [window_days, channels] = GetParam();
  features::RawExtractor raw;
  features::DailyPercentileExtractor percentile;
  features::HandcraftedExtractor handcrafted;

  Matrix<float> window(window_days * kHoursPerDay, channels, 0.5f);
  std::vector<float> out;

  raw.Extract(window, &out);
  EXPECT_EQ(static_cast<int>(out.size()),
            raw.OutputDim(window_days, channels));
  percentile.Extract(window, &out);
  EXPECT_EQ(static_cast<int>(out.size()),
            percentile.OutputDim(window_days, channels));
  handcrafted.Extract(window, &out);
  EXPECT_EQ(static_cast<int>(out.size()),
            handcrafted.OutputDim(window_days, channels));

  // SourceChannel stays within range for all three extractors.
  for (int index = 0; index < raw.OutputDim(window_days, channels);
       index += 13) {
    int channel = raw.SourceChannel(index, window_days, channels);
    EXPECT_GE(channel, 0);
    EXPECT_LT(channel, channels);
  }
  for (int index = 0;
       index < handcrafted.OutputDim(window_days, channels); index += 13) {
    int channel = handcrafted.SourceChannel(index, window_days, channels);
    EXPECT_GE(channel, 0);
    EXPECT_LT(channel, channels);
  }
}

TEST_P(WindowProperty, ConstantWindowGivesConstantSummaries) {
  auto [window_days, channels] = GetParam();
  Matrix<float> window(window_days * kHoursPerDay, channels, 2.5f);
  features::DailyPercentileExtractor percentile;
  std::vector<float> out;
  percentile.Extract(window, &out);
  for (float v : out) EXPECT_FLOAT_EQ(v, 2.5f);
  features::HandcraftedExtractor handcrafted;
  handcrafted.Extract(window, &out);
  // Means, mins, maxes and raw values are all 2.5; stds and diffs 0; week
  // buckets beyond the window are NaN.
  for (float v : out) {
    if (IsMissing(v)) continue;
    EXPECT_TRUE(v == 2.5f || v == 0.0f) << v;
  }
}

}  // namespace
}  // namespace hotspot
