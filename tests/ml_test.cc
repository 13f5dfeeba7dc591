#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace hotspot::ml {
namespace {

/// Linearly separable: label = x0 > 0.5.
Dataset SeparableDataset(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.features = Matrix<float>(n, 3);
  data.labels.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    float x0 = static_cast<float>(rng.UniformDouble());
    data.features(i, 0) = x0;
    data.features(i, 1) = static_cast<float>(rng.Gaussian());
    data.features(i, 2) = static_cast<float>(rng.Gaussian());
    data.labels[static_cast<size_t>(i)] = x0 > 0.5f ? 1.0f : 0.0f;
  }
  data.weights.assign(static_cast<size_t>(n), 1.0);
  return data;
}

/// XOR of two binary features, not linearly separable.
Dataset XorDataset(int n, uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.features = Matrix<float>(n, 2);
  data.labels.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int a = static_cast<int>(rng.UniformInt(0, 1));
    int b = static_cast<int>(rng.UniformInt(0, 1));
    data.features(i, 0) = static_cast<float>(a);
    data.features(i, 1) = static_cast<float>(b);
    data.labels[static_cast<size_t>(i)] = (a ^ b) ? 1.0f : 0.0f;
  }
  data.weights.assign(static_cast<size_t>(n), 1.0);
  return data;
}

double Accuracy(const BinaryClassifier& model, const Dataset& data) {
  int correct = 0;
  for (int i = 0; i < data.num_instances(); ++i) {
    double p = model.PredictProba(data.features.Row(i));
    bool predicted = p >= 0.5;
    bool actual = data.labels[static_cast<size_t>(i)] != 0.0f;
    if (predicted == actual) ++correct;
  }
  return static_cast<double>(correct) / data.num_instances();
}

TEST(BalancedWeights, ClassesCarryEqualTotalWeight) {
  std::vector<float> labels = {1, 0, 0, 0};
  std::vector<double> weights = BalancedWeights(labels);
  double positive = weights[0];
  double negative = weights[1] + weights[2] + weights[3];
  EXPECT_DOUBLE_EQ(positive, negative);
  EXPECT_DOUBLE_EQ(positive + negative, 4.0);
}

TEST(BalancedWeights, DegenerateClassYieldsOnes) {
  std::vector<double> weights = BalancedWeights({1, 1, 1});
  for (double w : weights) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(DecisionTree, FitsSeparableData) {
  Dataset data = SeparableDataset(300, 1);
  TreeConfig config;
  config.max_features_fraction = 1.0;
  config.min_weight_fraction = 0.01;
  DecisionTree tree(config);
  tree.Fit(data);
  EXPECT_GT(Accuracy(tree, data), 0.97);
}

TEST(DecisionTree, SolvesXorWithDepth) {
  Dataset data = XorDataset(400, 2);
  TreeConfig config;
  config.max_features_fraction = 1.0;
  config.min_weight_fraction = 0.001;
  DecisionTree tree(config);
  tree.Fit(data);
  EXPECT_GT(Accuracy(tree, data), 0.99);
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTree, MaxDepthLimitsTree) {
  Dataset data = XorDataset(400, 3);
  TreeConfig config;
  config.max_features_fraction = 1.0;
  config.max_depth = 1;
  config.min_weight_fraction = 0.001;
  DecisionTree tree(config);
  tree.Fit(data);
  EXPECT_LE(tree.depth(), 1);
  EXPECT_LE(tree.num_nodes(), 3);
}

TEST(DecisionTree, MinWeightFractionStopsPartitioning) {
  // XOR needs two split levels; a strict weight floor blocks the second.
  Dataset data = XorDataset(200, 4);
  TreeConfig loose;
  loose.max_features_fraction = 1.0;
  loose.min_weight_fraction = 0.001;
  TreeConfig strict = loose;
  strict.min_weight_fraction = 0.9;
  DecisionTree deep(loose);
  DecisionTree shallow(strict);
  deep.Fit(data);
  shallow.Fit(data);
  EXPECT_GT(deep.num_nodes(), shallow.num_nodes());
}

TEST(DecisionTree, PureNodeIsSingleLeaf) {
  Dataset data;
  data.features = Matrix<float>(4, 1);
  data.labels = {1, 1, 1, 1};
  data.weights = {1, 1, 1, 1};
  DecisionTree tree(TreeConfig{});
  tree.Fit(data);
  EXPECT_EQ(tree.num_nodes(), 1);
  float row = 0.0f;
  EXPECT_DOUBLE_EQ(tree.PredictProba(&row), 1.0);
}

TEST(DecisionTree, MissingValuesRoutedLeft) {
  // Feature 0 separates; NaN at prediction time goes to the left child
  // (the <= branch).
  Dataset data = SeparableDataset(300, 5);
  TreeConfig config;
  config.max_features_fraction = 1.0;
  config.max_depth = 1;
  config.min_weight_fraction = 0.01;
  DecisionTree tree(config);
  tree.Fit(data);
  float low[3] = {0.0f, 0.0f, 0.0f};
  float missing[3] = {MissingValue(), 0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(tree.PredictProba(missing), tree.PredictProba(low));
}

TEST(DecisionTree, ImportancesConcentrateOnInformativeFeature) {
  Dataset data = SeparableDataset(400, 6);
  TreeConfig config;
  config.max_features_fraction = 1.0;
  config.min_weight_fraction = 0.01;
  DecisionTree tree(config);
  tree.Fit(data);
  std::vector<double> importances = tree.FeatureImportances();
  ASSERT_EQ(importances.size(), 3u);
  double sum = importances[0] + importances[1] + importances[2];
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(importances[0], 0.8);
}

TEST(DecisionTree, DeterministicGivenSeed) {
  Dataset data = SeparableDataset(200, 7);
  TreeConfig config;
  config.seed = 99;
  DecisionTree a(config);
  DecisionTree b(config);
  a.Fit(data);
  b.Fit(data);
  Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    float row[3] = {static_cast<float>(rng.UniformDouble()),
                    static_cast<float>(rng.Gaussian()),
                    static_cast<float>(rng.Gaussian())};
    EXPECT_DOUBLE_EQ(a.PredictProba(row), b.PredictProba(row));
  }
}

TEST(DecisionTree, SplitFeatureAtInspectsFirstSplits) {
  Dataset data = SeparableDataset(400, 9);
  TreeConfig config;
  config.max_features_fraction = 1.0;
  config.min_weight_fraction = 0.01;
  DecisionTree tree(config);
  tree.Fit(data);
  EXPECT_EQ(tree.SplitFeatureAt(0), 0);  // root splits on the signal
  EXPECT_EQ(tree.SplitFeatureAt(100000), -1);
}

TEST(DecisionTree, RespectsSampleWeights) {
  // Two contradictory points; the heavier one wins the leaf probability.
  Dataset data;
  data.features = Matrix<float>(2, 1, 0.5f);
  data.labels = {1, 0};
  data.weights = {9.0, 1.0};
  DecisionTree tree(TreeConfig{});
  tree.Fit(data);
  float row = 0.5f;
  EXPECT_NEAR(tree.PredictProba(&row), 0.9, 1e-6);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyXor) {
  // XOR plus many noise features: a single tree with random feature
  // subsets struggles; the forest averages it out.
  Rng rng(10);
  const int n = 500;
  Dataset data;
  data.features = Matrix<float>(n, 12);
  data.labels.resize(n);
  for (int i = 0; i < n; ++i) {
    int a = static_cast<int>(rng.UniformInt(0, 1));
    int b = static_cast<int>(rng.UniformInt(0, 1));
    data.features(i, 0) = static_cast<float>(a);
    data.features(i, 1) = static_cast<float>(b);
    for (int k = 2; k < 12; ++k) {
      data.features(i, k) = static_cast<float>(rng.Gaussian());
    }
    data.labels[static_cast<size_t>(i)] = (a ^ b) ? 1.0f : 0.0f;
  }
  data.weights.assign(n, 1.0);

  ForestConfig forest_config;
  forest_config.num_trees = 40;
  forest_config.min_weight_fraction = 0.005;
  RandomForest forest(forest_config);
  forest.Fit(data);
  EXPECT_GT(Accuracy(forest, data), 0.9);
}

TEST(RandomForest, ProbabilitiesInUnitInterval) {
  Dataset data = SeparableDataset(200, 11);
  ForestConfig config;
  config.num_trees = 10;
  RandomForest forest(config);
  forest.Fit(data);
  for (int i = 0; i < data.num_instances(); ++i) {
    double p = forest.PredictProba(data.features.Row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForest, ImportancesNormalizedAndInformative) {
  Dataset data = SeparableDataset(300, 12);
  ForestConfig config;
  config.num_trees = 20;
  RandomForest forest(config);
  forest.Fit(data);
  std::vector<double> importances = forest.FeatureImportances();
  double sum = 0.0;
  for (double v : importances) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(importances[0], importances[1]);
  EXPECT_GT(importances[0], importances[2]);
}

TEST(RandomForest, DeterministicGivenSeed) {
  Dataset data = SeparableDataset(150, 13);
  ForestConfig config;
  config.num_trees = 8;
  config.seed = 1234;
  RandomForest a(config);
  RandomForest b(config);
  a.Fit(data);
  b.Fit(data);
  for (int i = 0; i < data.num_instances(); ++i) {
    EXPECT_DOUBLE_EQ(a.PredictProba(data.features.Row(i)),
                     b.PredictProba(data.features.Row(i)));
  }
}

TEST(FeatureBinner, BinsAreMonotoneInValue) {
  Matrix<float> features(100, 1);
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    features(i, 0) = static_cast<float>(rng.Gaussian());
  }
  FeatureBinner binner;
  binner.Fit(features, 16);
  int previous = -1;
  for (float v = -3.0f; v <= 3.0f; v += 0.05f) {
    int bin = binner.Bin(0, v);
    EXPECT_GE(bin, previous);
    EXPECT_GE(bin, 1);
    EXPECT_LT(bin, binner.NumBins(0));
    previous = bin;
  }
}

TEST(FeatureBinner, MissingGoesToBinZero) {
  Matrix<float> features(10, 1);
  for (int i = 0; i < 10; ++i) features(i, 0) = static_cast<float>(i);
  FeatureBinner binner;
  binner.Fit(features, 8);
  EXPECT_EQ(binner.Bin(0, MissingValue()), 0);
}

TEST(FeatureBinner, ConstantFeatureHasSingleFiniteBin) {
  Matrix<float> features(10, 1, 3.0f);
  FeatureBinner binner;
  binner.Fit(features, 8);
  EXPECT_EQ(binner.Bin(0, 3.0f), 1);
  EXPECT_EQ(binner.Bin(0, 100.0f), 1);
  EXPECT_EQ(binner.NumBins(0), 2);
}

TEST(FeatureBinner, BinCountsTheCutsAValueExceeds) {
  // Bin() searches the cuts; it must equal the count its contract states,
  // 1 + #{cut : !(value <= cut)}, on every column kind the binner meets:
  // signed zeros, infinities next to finite values, few and many distinct
  // values, and a -Inf/+Inf column whose only cut is their NaN midpoint.
  const float inf = std::numeric_limits<float>::infinity();
  const int n = 300;
  Matrix<float> features(n, 6);
  Rng rng(23);
  for (int i = 0; i < n; ++i) {
    features(i, 0) = static_cast<float>(rng.Gaussian());
    features(i, 1) = rng.Bernoulli(0.4) ? (rng.Bernoulli(0.5) ? -0.0f : 0.0f)
                                        : static_cast<float>(rng.Gaussian());
    features(i, 2) = rng.Bernoulli(0.1)   ? -inf
                     : rng.Bernoulli(0.1) ? inf
                                          : static_cast<float>(rng.Gaussian());
    features(i, 3) = static_cast<float>(rng.UniformInt(0, 2));
    features(i, 4) = rng.Bernoulli(0.5) ? -inf : inf;
    features(i, 5) = static_cast<float>(rng.UniformInt(0, 1000));
  }
  for (int max_bins : {2, 3, 16, 255}) {
    FeatureBinner binner;
    binner.Fit(features, max_bins);
    ASSERT_EQ(binner.Thresholds(4).size(), 1u);
    EXPECT_TRUE(std::isnan(binner.Thresholds(4)[0]));
    std::vector<float> probes = {-inf, inf, -0.0f, 0.0f, 1e-30f, -1e-30f};
    for (int i = 0; i < n; ++i) probes.push_back(features(i, i % 6));
    for (int i = 0; i < 200; ++i) {
      probes.push_back(static_cast<float>(rng.Uniform(-4.0, 4.0)));
    }
    for (int f = 0; f < 6; ++f) {
      for (float value : probes) {
        int expected = 1;
        for (float cut : binner.Thresholds(f)) expected += !(value <= cut);
        EXPECT_EQ(binner.Bin(f, value), expected)
            << "feature " << f << " value " << value << " max_bins "
            << max_bins;
      }
    }
  }
}

TEST(FeatureBinner, TilesHoldEveryTrainingValuesBin) {
  // 70 features: two full 32-wide tiles and a partial one of 6.
  Matrix<float> features(50, 70);
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    for (int f = 0; f < 70; ++f) {
      features(i, f) = (i + f) % 9 == 0
                           ? MissingValue()
                           : static_cast<float>(rng.UniformInt(0, f % 40));
    }
  }
  BinTiles tiles(50, 70);
  FeatureBinner binner;
  binner.Fit(features, 16, &tiles);
  ASSERT_EQ(tiles.num_tiles(), 3);
  EXPECT_EQ(tiles.width(0), 32);
  EXPECT_EQ(tiles.width(2), 6);
  for (int i = 0; i < 50; ++i) {
    for (int f = 0; f < 70; ++f) {
      EXPECT_EQ(tiles.At(i, f), binner.Bin(f, features(i, f)))
          << "row " << i << " feature " << f;
    }
  }
}

TEST(ColumnClasses, LowestIndexRepresentsBitwiseEqualColumnsOnly) {
  const int n = 40;
  Matrix<float> features(n, 11);
  Rng rng(31);
  for (int i = 0; i < n; ++i) {
    features(i, 0) = static_cast<float>(rng.Gaussian());
    features(i, 1) = static_cast<float>(rng.Gaussian());
    features(i, 5) = rng.Bernoulli(0.5) ? (rng.Bernoulli(0.5) ? -0.0f : 0.0f)
                                        : static_cast<float>(rng.Gaussian());
    features(i, 7) = rng.Bernoulli(0.3) ? MissingValue()
                                        : static_cast<float>(rng.Gaussian());
  }
  for (int i = 0; i < n; ++i) {
    features(i, 2) = features(i, 0);
    features(i, 3) = features(i, 1);
    features(i, 4) = i + 1 < n ? features(i, 0) : features(i, 0) + 1.0f;
    // Equal to column 5 under ==, but every zero's sign is flipped.
    features(i, 6) = features(i, 5) == 0.0f ? -features(i, 5) : features(i, 5);
    // Equal to column 7 but for the NaNs' payload.
    features(i, 8) =
        std::isnan(features(i, 7))
            ? std::bit_cast<float>(std::bit_cast<uint32_t>(features(i, 7)) ^ 1u)
            : features(i, 7);
    features(i, 9) = features(i, 7);
    features(i, 10) = features(i, 5);
  }
  EXPECT_EQ(ColumnRepresentatives(features),
            (std::vector<int>{0, 1, 0, 1, 4, 5, 6, 7, 8, 7, 5}));

  // 100 copies of one column form one class, whatever surrounds them.
  Matrix<float> wide(30, 103);
  for (int i = 0; i < 30; ++i) {
    const float value = static_cast<float>(rng.Gaussian());
    for (int f = 0; f < 103; ++f) {
      wide(i, f) = f < 3 ? static_cast<float>(rng.Gaussian()) : value;
    }
  }
  std::vector<int> expected(103, 3);
  expected[0] = 0;
  expected[1] = 1;
  expected[2] = 2;
  EXPECT_EQ(ColumnRepresentatives(wide), expected);
}

TEST(FeatureBinner, CopiesGetTheCutsAndBinsTheyWouldCompute) {
  // 70 features over three tiles, with copies inside a tile, across tiles,
  // below their original's index and of a copy. Each column's cuts must be
  // the bits a binner fitted on that column alone finds, and its tile
  // column the bins of its own values.
  const int n = 64;
  const int d = 70;
  Matrix<float> features(n, d);
  Rng rng(37);
  for (int i = 0; i < n; ++i) {
    for (int f = 0; f < d; ++f) {
      features(i, f) = f % 3 == 0   ? static_cast<float>(rng.Gaussian())
                       : f % 3 == 1 ? static_cast<float>(rng.UniformInt(0, 5))
                       : rng.Bernoulli(0.2)
                           ? MissingValue()
                           : static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  const std::vector<std::pair<int, int>> copies = {
      {9, 0}, {33, 2}, {69, 33}, {5, 40}, {64, 7}, {31, 30}};
  for (const auto& [column, source] : copies) {
    for (int i = 0; i < n; ++i) features(i, column) = features(i, source);
  }
  BinTiles tiles(n, d);
  FeatureBinner binner;
  const std::vector<int> representatives = binner.Fit(features, 16, &tiles);
  EXPECT_EQ(representatives, ColumnRepresentatives(features));
  for (int f : {9, 33, 69, 40, 64, 31}) {
    EXPECT_NE(representatives[static_cast<size_t>(f)], f) << "feature " << f;
  }
  for (int f = 0; f < d; ++f) {
    Matrix<float> column(n, 1);
    for (int i = 0; i < n; ++i) column(i, 0) = features(i, f);
    FeatureBinner alone;
    alone.Fit(column, 16);
    const std::vector<float>& cuts = binner.Thresholds(f);
    ASSERT_EQ(cuts.size(), alone.Thresholds(0).size()) << "feature " << f;
    for (size_t c = 0; c < cuts.size(); ++c) {
      EXPECT_EQ(std::bit_cast<uint32_t>(cuts[c]),
                std::bit_cast<uint32_t>(alone.Thresholds(0)[c]))
          << "feature " << f << " cut " << c;
    }
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(tiles.At(i, f), binner.Bin(f, features(i, f)))
          << "row " << i << " feature " << f;
    }
  }
}

/// The histograms of every feature of `bins` over `rows`, built tile by
/// tile into a buffer that starts as garbage, so the zeroing is tested too.
std::vector<int64_t> BuildAll(const BinTiles& bins,
                              const HistogramLayout& layout,
                              const std::vector<int>& rows,
                              const std::vector<int64_t>& gradients) {
  std::vector<int64_t> pairs(2 * rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    pairs[2 * i] = gradients[2 * static_cast<size_t>(rows[i])];
    pairs[2 * i + 1] = gradients[2 * static_cast<size_t>(rows[i]) + 1];
  }
  std::vector<int64_t> hist(layout.size(), int64_t{0x5a5a5a5a5a5a5a5a});
  for (int t = 0; t < bins.num_tiles(); ++t) {
    std::vector<int> features;
    for (int k = 0; k < bins.width(t); ++k) {
      features.push_back(t * BinTiles::kWidth + k);
    }
    BuildHistograms(bins, layout, features, rows, pairs.data(), hist.data());
  }
  return hist;
}

TEST(GbdtHistograms, SubtractionEqualsDirectBuildBitwise) {
  // 70 features: two full tiles and a partial one of 6. Columns have 2,
  // 32 or 255 bins; every fifth holds one bin in every row, half the
  // rest never use the missing bin 0, and some crowd it.
  const int n = 900;
  const int d = 70;
  Rng rng(31);
  BinTiles bins(n, d);
  std::vector<int> num_bins(d);
  for (int f = 0; f < d; ++f) {
    const int kinds[] = {2, 32, 255};
    num_bins[static_cast<size_t>(f)] = kinds[f % 3];
  }
  for (int t = 0; t < bins.num_tiles(); ++t) {
    uint8_t* tile = bins.tile(t);
    const int width = bins.width(t);
    for (int r = 0; r < n; ++r) {
      for (int k = 0; k < width; ++k) {
        const int f = t * BinTiles::kWidth + k;
        const int top = num_bins[static_cast<size_t>(f)] - 1;
        int bin = static_cast<int>(rng.UniformInt((f / 2) % 2, top));
        if (f % 5 == 0) bin = top;
        if (f % 7 == 6 && rng.Bernoulli(0.5)) bin = 0;
        tile[static_cast<size_t>(r) * static_cast<size_t>(width) +
             static_cast<size_t>(k)] = static_cast<uint8_t>(bin);
      }
    }
  }
  ASSERT_EQ(bins.num_tiles(), 3);
  const HistogramLayout layout(num_bins);
  // Fixed-point pairs as a fit makes them: signed gradients, positive
  // hessians, near the 2^61 / n scale.
  std::vector<int64_t> gradients(2 * static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    gradients[2 * static_cast<size_t>(r)] =
        rng.UniformInt(-(int64_t{1} << 51), int64_t{1} << 51);
    gradients[2 * static_cast<size_t>(r) + 1] =
        rng.UniformInt(1, int64_t{1} << 49);
  }

  for (int trial = 0; trial < 12; ++trial) {
    std::vector<int> parent = rng.SampleWithoutReplacement(
        n, static_cast<int>(rng.UniformInt(2, n)));
    // A random partition, from lopsided (one child may be empty) to even.
    const double share = rng.UniformDouble();
    std::vector<int> left;
    std::vector<int> right;
    for (int r : parent) (rng.Bernoulli(share) ? left : right).push_back(r);
    const std::vector<int64_t> parent_hist =
        BuildAll(bins, layout, parent, gradients);
    const std::vector<int64_t> left_hist =
        BuildAll(bins, layout, left, gradients);
    const std::vector<int64_t> right_hist =
        BuildAll(bins, layout, right, gradients);

    // Row order does not matter.
    std::vector<int> reversed(parent.rbegin(), parent.rend());
    EXPECT_EQ(BuildAll(bins, layout, reversed, gradients), parent_hist);

    // Left + right is the parent, value by value.
    for (size_t j = 0; j < layout.size(); ++j) {
      ASSERT_EQ(left_hist[j] + right_hist[j], parent_hist[j])
          << "trial " << trial << " value " << j;
    }

    // Parent - smaller is the directly built larger, bitwise.
    const bool left_smaller = left.size() <= right.size();
    const std::vector<int64_t>& smaller = left_smaller ? left_hist : right_hist;
    const std::vector<int64_t>& larger = left_smaller ? right_hist : left_hist;
    std::vector<int64_t> derived = parent_hist;
    for (int t = 0; t < bins.num_tiles(); ++t) {
      std::vector<int> features;
      for (int k = 0; k < bins.width(t); ++k) {
        features.push_back(t * BinTiles::kWidth + k);
      }
      SubtractHistograms(layout, features, smaller.data(), derived.data());
    }
    EXPECT_EQ(derived, larger) << "trial " << trial;

    // Each child's per-feature totals add up to the parent's rows' sums.
    int64_t grad_total = 0;
    int64_t hess_total = 0;
    for (int r : parent) {
      grad_total += gradients[2 * static_cast<size_t>(r)];
      hess_total += gradients[2 * static_cast<size_t>(r) + 1];
    }
    for (int f = 0; f < d; ++f) {
      int64_t grad = 0;
      int64_t hess = 0;
      for (int b = 0; b < layout.num_bins(f); ++b) {
        const size_t at = layout.offset(f) + 2 * static_cast<size_t>(b);
        grad += left_hist[at] + right_hist[at];
        hess += left_hist[at + 1] + right_hist[at + 1];
      }
      EXPECT_EQ(grad, grad_total) << "feature " << f;
      EXPECT_EQ(hess, hess_total) << "feature " << f;
    }
  }
}

TEST(GbdtHistograms, BuildTouchesOnlyItsFeatures) {
  // A tile task builds a slice of a tile's features; the rest of the
  // buffer, other slices' bins included, stays as it was.
  const int n = 50;
  const int d = 40;
  Rng rng(37);
  BinTiles bins(n, d);
  std::vector<int> num_bins(d, 5);
  num_bins[3] = 0;  // a feature that never splits has no bins
  for (int t = 0; t < bins.num_tiles(); ++t) {
    uint8_t* tile = bins.tile(t);
    for (size_t i = 0; i < static_cast<size_t>(n * bins.width(t)); ++i) {
      tile[i] = static_cast<uint8_t>(rng.UniformInt(0, 4));
    }
  }
  const HistogramLayout layout(num_bins);
  EXPECT_EQ(layout.num_bins(3), 0);
  EXPECT_EQ(layout.size(), 2u * 5u * (d - 1));
  std::vector<int> rows(n);
  std::vector<int64_t> pairs(2 * n);
  for (int i = 0; i < n; ++i) {
    rows[static_cast<size_t>(i)] = i;
    pairs[2 * static_cast<size_t>(i)] = i - 20;
    pairs[2 * static_cast<size_t>(i) + 1] = i + 1;
  }
  const int64_t sentinel = -7;
  std::vector<int64_t> hist(layout.size(), sentinel);
  const std::vector<int> slice = {5, 9, 30};
  BuildHistograms(bins, layout, slice, rows, pairs.data(), hist.data());
  for (int f = 0; f < d; ++f) {
    const bool built = f == 5 || f == 9 || f == 30;
    int64_t hess = 0;
    for (int b = 0; b < layout.num_bins(f); ++b) {
      const int64_t value =
          hist[layout.offset(f) + 2 * static_cast<size_t>(b) + 1];
      if (!built) {
        EXPECT_EQ(value, sentinel) << "feature " << f;
      }
      hess += value;
    }
    if (built) {
      EXPECT_EQ(hess, n * (n + 1) / 2) << "feature " << f;
    }
  }
}

TEST(Gbdt, FitsSeparableData) {
  Dataset data = SeparableDataset(300, 15);
  GbdtConfig config;
  config.num_iterations = 30;
  Gbdt model(config);
  model.Fit(data);
  EXPECT_GT(Accuracy(model, data), 0.95);
}

TEST(Gbdt, SolvesXor) {
  Dataset data = XorDataset(400, 16);
  GbdtConfig config;
  config.num_iterations = 40;
  Gbdt model(config);
  model.Fit(data);
  EXPECT_GT(Accuracy(model, data), 0.99);
}

TEST(Gbdt, TrainingLossDecreases) {
  Dataset data = SeparableDataset(200, 17);
  GbdtConfig config;
  config.num_iterations = 25;
  Gbdt model(config);
  model.Fit(data);
  const std::vector<double>& loss = model.training_loss();
  ASSERT_EQ(loss.size(), 25u);
  EXPECT_LT(loss.back(), 0.5 * loss.front());
}

TEST(Gbdt, ProbabilitiesInUnitInterval) {
  Dataset data = SeparableDataset(200, 18);
  GbdtConfig config;
  config.num_iterations = 15;
  Gbdt model(config);
  model.Fit(data);
  for (int i = 0; i < data.num_instances(); ++i) {
    double p = model.PredictProba(data.features.Row(i));
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(Gbdt, ImportancesHighlightSignal) {
  Dataset data = SeparableDataset(400, 19);
  GbdtConfig config;
  config.num_iterations = 20;
  Gbdt model(config);
  model.Fit(data);
  std::vector<double> importances = model.FeatureImportances();
  EXPECT_GT(importances[0], 0.5);
}

TEST(Gbdt, DeterministicGivenSeed) {
  Dataset data = SeparableDataset(150, 20);
  GbdtConfig config;
  config.num_iterations = 10;
  config.bagging_fraction = 0.8;
  config.feature_fraction = 0.8;
  config.seed = 777;
  Gbdt a(config);
  Gbdt b(config);
  a.Fit(data);
  b.Fit(data);
  for (int i = 0; i < data.num_instances(); ++i) {
    EXPECT_DOUBLE_EQ(a.PredictRaw(data.features.Row(i)),
                     b.PredictRaw(data.features.Row(i)));
  }
}

TEST(Gbdt, RespectsMaxDepthOne) {
  Dataset data = XorDataset(300, 21);
  GbdtConfig config;
  config.num_iterations = 40;
  config.max_depth = 1;  // stumps cannot represent XOR
  Gbdt model(config);
  model.Fit(data);
  EXPECT_LT(Accuracy(model, data), 0.8);
}

TEST(GbdtDeathTest, RefusesNonPositiveOrNanMinChildHessian) {
  // A floor of 0, or NaN (which no comparison trips), lets a split leave
  // a child empty; the constructor refuses it by name.
  for (double floor : {0.0, -1.0, std::nan("")}) {
    GbdtConfig config;
    config.min_child_hessian = floor;
    EXPECT_DEATH(Gbdt{config}, "min_child_hessian must be > 0") << floor;
  }
}

TEST(Gbdt, FitsAtExtremeWeightSums) {
  // The fixed-point scale follows the weight sum, so a fit whose weights
  // sum to 1e-30 or 1e30 stays finite and learns. (The hessian floor and
  // the L2 term are absolute, so they shrink with the tiny weights.)
  for (double total : {1e-30, 1e30}) {
    Dataset data = SeparableDataset(300, 15);
    data.weights.assign(data.weights.size(), total / 300.0);
    GbdtConfig config;
    config.num_iterations = 30;
    if (total < 1.0) {
      config.lambda_l2 = 0.0;
      config.min_child_hessian = 1e-300;
    }
    Gbdt model(config);
    model.Fit(data);
    for (int i = 0; i < data.num_instances(); ++i) {
      EXPECT_TRUE(std::isfinite(model.PredictRaw(data.features.Row(i))));
    }
    EXPECT_GT(Accuracy(model, data), 0.95) << total;
    EXPECT_LT(model.training_loss().back(),
              0.5 * model.training_loss().front())
        << total;
  }
}

TEST(GbdtDeathTest, RefusesHostileWeightsByName) {
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double weight;
    const char* message;
  };
  for (const Case& c : {Case{std::nan(""), "row 7 has a NaN weight"},
                        Case{inf, "row 7 has an infinite weight"},
                        Case{-inf, "row 7 has an infinite weight"},
                        Case{-0.5, "row 7 has a negative weight"}}) {
    Dataset data = SeparableDataset(20, 3);
    data.weights[7] = c.weight;
    Gbdt model(GbdtConfig{});
    EXPECT_DEATH(model.Fit(data), c.message) << c.weight;
  }
  Dataset zero = SeparableDataset(20, 3);
  zero.weights.assign(zero.weights.size(), 0.0);
  Gbdt zero_model(GbdtConfig{});
  EXPECT_DEATH(zero_model.Fit(zero), "weights sum to 0, not > 0");
  Dataset huge = SeparableDataset(20, 3);
  huge.weights.assign(huge.weights.size(), 1e308);
  Gbdt huge_model(GbdtConfig{});
  EXPECT_DEATH(huge_model.Fit(huge), "weights sum to inf, not finite");
}

TEST(GbdtDeathTest, RefusesNegativeOrNanLambda) {
  for (double lambda : {-1.0, std::nan("")}) {
    GbdtConfig config;
    config.lambda_l2 = lambda;
    EXPECT_DEATH(Gbdt{config}, "lambda_l2 must be >= 0") << lambda;
  }
}

TEST(Gbdt, LeafWithoutCurvatureTakesNoStep) {
  // With lambda_l2 = 0, a bag that draws only zero-weight rows gives its
  // root no hessian; the leaf must take no step rather than 0 / 0, whose
  // NaN would reach the next iteration's fixed-point rounding.
  Dataset data = SeparableDataset(200, 22);
  for (size_t i = 0; i < data.weights.size(); ++i) {
    data.weights[i] = i % 50 == 0 ? 1.0 : 0.0;
  }
  GbdtConfig config;
  config.num_iterations = 20;
  config.lambda_l2 = 0.0;
  config.bagging_fraction = 0.05;
  Gbdt model(config);
  model.Fit(data);
  for (int i = 0; i < data.num_instances(); ++i) {
    EXPECT_TRUE(std::isfinite(model.PredictRaw(data.features.Row(i)))) << i;
  }
  for (double loss : model.training_loss()) EXPECT_TRUE(std::isfinite(loss));
}

TEST(Sigmoid, StableAtExtremes) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(40.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-40.0), 0.0, 1e-12);
  EXPECT_NEAR(Sigmoid(2.0) + Sigmoid(-2.0), 1.0, 1e-12);
}

}  // namespace
}  // namespace hotspot::ml
