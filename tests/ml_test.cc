#include <cmath>

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

TEST(Sigmoid, StableAtExtremes) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(40.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-40.0), 0.0, 1e-12);
  EXPECT_NEAR(Sigmoid(2.0) + Sigmoid(-2.0), 1.0, 1e-12);
}

}  // namespace
}  // namespace hotspot::ml
