// Lockdown harness for the SIMD flat-tree inference engine. The contract
// (same discipline as the serialization and streaming PRs): FlatForest
// predictions are BITWISE identical to the scalar pointer-walking models —
// for every kernel (scalar / AVX2 / AVX-512), every batch decomposition and
// every HOTSPOT_NUM_THREADS — on
//   * trained Gbdt / RandomForest / DecisionTree models over NaN-bearing
//     data and the full golden study tensor, and
//   * >= 1000 fuzzer-generated adversarial trees (degenerate chains,
//     single leaves, all-NaN feature columns, +-inf and NaN thresholds,
//     out-of-range bin thresholds), constructed through the serialize
//     decoders so only loadable node graphs are exercised.
// Also locks the runtime CPUID gate: an AVX2 request on any host must
// degrade gracefully to scalar with identical scores.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/forecast_service.h"
#include "core/forecaster.h"
#include "core/study.h"
#include "features/raw_features.h"
#include "features/window.h"
#include "gtest/gtest.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/flat_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "serialize/binary_format.h"
#include "serialize/model_io.h"
#include "serialize_golden.h"
#include "tensor/matrix.h"
#include "thread_matrix.h"
#include "util/rng.h"

namespace hotspot {
namespace {

using ml::FlatForest;
using ml::FlatKernel;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// memcmp-level equality: distinguishes -0.0 from 0.0 and compares NaN
/// payloads bit for bit, which EXPECT_EQ on doubles would not.
void ExpectBitwiseEqual(const std::vector<double>& actual,
                        const std::vector<double>& expected,
                        const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  if (actual.empty()) return;
  if (std::memcmp(actual.data(), expected.data(),
                  actual.size() * sizeof(double)) == 0) {
    return;
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, &actual[i], sizeof(a));
    std::memcpy(&b, &expected[i], sizeof(b));
    ASSERT_EQ(a, b) << what << ": row " << i << " differs (" << actual[i]
                    << " vs " << expected[i] << ")";
  }
}

/// Scalar reference: one PredictProba per row.
std::vector<double> ScalarPredictions(const ml::BinaryClassifier& model,
                                      const Matrix<float>& rows) {
  std::vector<double> out(static_cast<size_t>(rows.rows()));
  for (int i = 0; i < rows.rows(); ++i) {
    out[static_cast<size_t>(i)] = model.PredictProba(rows.Row(i));
  }
  return out;
}

std::vector<double> FlatPredictions(const FlatForest& flat,
                                    const Matrix<float>& rows,
                                    FlatKernel kernel) {
  std::vector<double> out(static_cast<size_t>(rows.rows()));
  flat.PredictBatch(rows.Row(0), rows.rows(), rows.cols(), out.data(),
                    kernel);
  return out;
}

/// Sweeps every kernel plus the one-row entry point and asserts each is
/// bitwise identical to the scalar model. The kAvx2 request covers the
/// AVX-512 block kernel too on hosts that report AVX-512F.
void ExpectFlatMatchesScalar(const ml::BinaryClassifier& model,
                             const FlatForest& flat,
                             const Matrix<float>& rows,
                             const std::string& what) {
  const std::vector<double> reference = ScalarPredictions(model, rows);
  for (FlatKernel kernel : {FlatKernel::kScalar, FlatKernel::kAvx2}) {
    ExpectBitwiseEqual(FlatPredictions(flat, rows, kernel), reference,
                       what + (kernel == FlatKernel::kScalar ? " scalar"
                                                             : " avx2"));
  }
  // Row-at-a-time must agree with the batch (blocking is unobservable).
  for (int i = 0; i < rows.rows() && i < 16; ++i) {
    const double one = flat.PredictOne(rows.Row(i));
    ExpectBitwiseEqual({one}, {reference[static_cast<size_t>(i)]},
                      what + " PredictOne row " + std::to_string(i));
  }
}

/// NaN with a non-default payload: must route exactly like any other NaN.
float PayloadNaN(uint32_t payload) {
  uint32_t bits = 0x7FC00000u | (payload & 0x000FFFFFu);
  float value = 0.0f;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Adversarial prediction rows: NaN payloads, +-inf, denormals, zeros and
/// a band of all-NaN feature columns.
Matrix<float> AdversarialRows(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix<float> rows(n, d);
  const int nan_columns = d >= 4 ? d / 4 : 0;
  for (int i = 0; i < n; ++i) {
    float* row = rows.Row(i);
    for (int f = 0; f < d; ++f) {
      if (f < nan_columns) {  // all-NaN feature column
        row[f] = PayloadNaN(static_cast<uint32_t>(f * 31 + 1));
        continue;
      }
      switch (rng.UniformInt(0, 9)) {
        case 0:
          row[f] = MissingValue();
          break;
        case 1:
          row[f] = PayloadNaN(static_cast<uint32_t>(rng.UniformInt(1, 1 << 20)));
          break;
        case 2:
          row[f] = std::numeric_limits<float>::infinity();
          break;
        case 3:
          row[f] = -std::numeric_limits<float>::infinity();
          break;
        case 4:
          row[f] = std::numeric_limits<float>::denorm_min();
          break;
        case 5:
          row[f] = 0.0f;
          break;
        case 6:
          row[f] = -0.0f;
          break;
        default:
          row[f] = static_cast<float>(rng.Gaussian(0.0, 2.0));
          break;
      }
    }
  }
  // One row of each extreme.
  if (n >= 3) {
    for (int f = 0; f < d; ++f) {
      rows.Row(n - 1)[f] = MissingValue();
      rows.Row(n - 2)[f] = std::numeric_limits<float>::infinity();
      rows.Row(n - 3)[f] = -std::numeric_limits<float>::infinity();
    }
  }
  return rows;
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

// ---------------------------------------------------------------------------
// Trained-model equivalence (thread matrix: serial reference + parallel)
// ---------------------------------------------------------------------------

TEST(FlatTreeTrained, GbdtBitwiseIdenticalAcrossKernelsAndThreads) {
  ml::Dataset data = MakeDataset(300, 12, 404);
  Matrix<float> adversarial = AdversarialRows(64, 12, 405);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ml::GbdtConfig config;
    config.num_iterations = 20;
    config.num_leaves = 15;
    config.max_bins = 32;
    config.feature_fraction = 0.7;
    config.bagging_fraction = 0.8;
    config.seed = 11;
    ml::Gbdt model(config);
    model.Fit(data);
    FlatForest flat = FlatForest::Compile(model);
    EXPECT_EQ(flat.num_trees(), model.num_trees());
    ExpectFlatMatchesScalar(model, flat, data.features,
                            "gbdt@" + threads + " threads");
    ExpectFlatMatchesScalar(model, flat, adversarial,
                            "gbdt adversarial@" + threads + " threads");
  });
}

TEST(FlatTreeTrained, RandomForestBitwiseIdenticalAcrossKernelsAndThreads) {
  ml::Dataset data = MakeDataset(250, 10, 77);
  Matrix<float> adversarial = AdversarialRows(48, 10, 78);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ml::ForestConfig config;
    config.num_trees = 12;
    config.seed = 5;
    ml::RandomForest model(config);
    model.Fit(data);
    FlatForest flat = FlatForest::Compile(model);
    EXPECT_EQ(flat.num_trees(), model.num_trees());
    ExpectFlatMatchesScalar(model, flat, data.features,
                            "forest@" + threads + " threads");
    ExpectFlatMatchesScalar(model, flat, adversarial,
                            "forest adversarial@" + threads + " threads");
  });
}

TEST(FlatTreeTrained, DecisionTreeBitwiseIdenticalAcrossKernelsAndThreads) {
  ml::Dataset data = MakeDataset(200, 8, 13);
  Matrix<float> adversarial = AdversarialRows(40, 8, 14);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ml::TreeConfig config;
    config.min_weight_fraction = 0.01;
    config.seed = 3;
    ml::DecisionTree model(config);
    model.Fit(data);
    FlatForest flat = FlatForest::Compile(model);
    EXPECT_EQ(flat.num_trees(), 1);
    ExpectFlatMatchesScalar(model, flat, data.features,
                            "tree@" + threads + " threads");
    ExpectFlatMatchesScalar(model, flat, adversarial,
                            "tree adversarial@" + threads + " threads");
  });
}

/// Compile also accepts the models through their BinaryClassifier base.
TEST(FlatTreeTrained, CompileDispatchesOnConcreteType) {
  ml::Dataset data = MakeDataset(150, 6, 21);
  ml::GbdtConfig config;
  config.num_iterations = 5;
  config.num_leaves = 4;
  config.max_bins = 8;
  ml::Gbdt model(config);
  model.Fit(data);
  const ml::BinaryClassifier& base = model;
  FlatForest flat = FlatForest::Compile(base);
  EXPECT_EQ(flat.aggregation(), FlatForest::Aggregation::kGbdtSigmoid);
  ExpectFlatMatchesScalar(model, flat, data.features, "base dispatch");
}

// ---------------------------------------------------------------------------
// Full study tensor through the serving path
// ---------------------------------------------------------------------------

/// One shared study per process (building it is the expensive part). The
/// golden hot threshold yields an all-leaf model on this small network, so
/// the threshold is lowered to give the classifier real internal nodes —
/// otherwise the oracle comparison would never traverse a split.
const Study& SharedStudy() {
  static const Study* const study = [] {
    StudyOptions options;
    options.hot_threshold_override = 0.5;
    return new Study(BuildStudy(testing::GoldenNetworkConfig(), options));
  }();
  return *study;
}

TEST(FlatTreeServing, ServiceMatchesPointerWalkOracleOverStudyTensor) {
  const Study& study = SharedStudy();
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig config = testing::GoldenForecastConfig();
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = study.score_config;
  ForecastService service(std::move(bundle));
  // The comparison is only meaningful if the model actually branches.
  ASSERT_GT(service.flat_forest().num_nodes(),
            service.flat_forest().num_trees());

  // The oracle: the study's feature rows at day t, scored serially by the
  // pointer-walking classifier.
  Matrix<float> rows(study.num_sectors(), service.bundle().feature_dim);
  std::vector<float> reference(static_cast<size_t>(study.num_sectors()));
  {
    features::RawExtractor extractor;
    std::vector<float> row;
    for (int i = 0; i < study.num_sectors(); ++i) {
      Matrix<float> window =
          features::ExtractWindow(study.features, i, config.t, config.w);
      extractor.Extract(window, &row);
      ASSERT_EQ(static_cast<int>(row.size()), rows.cols());
      std::memcpy(rows.Row(i), row.data(), row.size() * sizeof(float));
      reference[static_cast<size_t>(i)] = static_cast<float>(
          service.bundle().classifier->PredictProba(rows.Row(i)));
    }
  }

  // Every thread count must reproduce the oracle bit for bit (memcmp over
  // the float vectors, so NaNs — if any — would also have to match).
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    std::vector<float> scores =
        service.PredictAtDay(study.features, config.t);
    ASSERT_EQ(scores.size(), reference.size());
    EXPECT_EQ(std::memcmp(scores.data(), reference.data(),
                          reference.size() * sizeof(float)),
              0)
        << threads << " threads";
  });

  // The bundle-carried flat forest matches the oracle over the whole study
  // tensor too (direct PredictBatch, every kernel).
  ExpectFlatMatchesScalar(*service.bundle().classifier,
                          service.flat_forest(), rows, "study tensor");
}

// ---------------------------------------------------------------------------
// Randomized adversarial tree fuzzer
// ---------------------------------------------------------------------------

/// Tree shapes the generator produces. Chains pin the degenerate-depth
/// case (every split has one leaf child), single leaves pin the no-split
/// case.
enum class TreeShape { kRandom, kDegenerateChain, kSingleLeaf };

struct FuzzNode {
  int feature = -1;
  float threshold = 0.0f;
  int left = -1;
  int right = -1;
  float prob = 0.0f;
};

float FuzzThreshold(Rng* rng) {
  switch (rng->UniformInt(0, 7)) {
    case 0:
      return std::numeric_limits<float>::infinity();
    case 1:
      return -std::numeric_limits<float>::infinity();
    case 2:
      return std::numeric_limits<float>::quiet_NaN();  // nothing <= NaN
    case 3:
      return 0.0f;
    case 4:
      return -0.0f;
    case 5:
      return std::numeric_limits<float>::denorm_min();
    default:
      return static_cast<float>(rng->Gaussian(0.0, 3.0));
  }
}

/// Appends a preorder subtree (children strictly after parents, as the
/// serialize decoders require) and returns its root index.
int GrowFuzzTree(Rng* rng, int depth, int max_depth, int num_features,
                 TreeShape shape, std::vector<FuzzNode>* nodes) {
  const int index = static_cast<int>(nodes->size());
  nodes->push_back(FuzzNode{});
  FuzzNode node;
  node.prob = static_cast<float>(rng->UniformDouble());
  const bool leaf =
      shape == TreeShape::kSingleLeaf || depth >= max_depth ||
      (shape == TreeShape::kRandom && rng->Bernoulli(0.3));
  if (!leaf) {
    node.feature = rng->UniformInt(0, num_features - 1);
    node.threshold = FuzzThreshold(rng);
    if (shape == TreeShape::kDegenerateChain) {
      // One child is a leaf, the other continues the chain: maximal depth
      // for the node count.
      const bool chain_left = rng->Bernoulli(0.5);
      int first = GrowFuzzTree(rng, depth + 1, max_depth, num_features,
                               chain_left ? shape : TreeShape::kSingleLeaf,
                               nodes);
      int second = GrowFuzzTree(rng, depth + 1, max_depth, num_features,
                                chain_left ? TreeShape::kSingleLeaf : shape,
                                nodes);
      node.left = first;
      node.right = second;
    } else {
      node.left =
          GrowFuzzTree(rng, depth + 1, max_depth, num_features, shape, nodes);
      node.right =
          GrowFuzzTree(rng, depth + 1, max_depth, num_features, shape, nodes);
    }
  }
  (*nodes)[static_cast<size_t>(index)] = node;
  return index;
}

/// Materializes the fuzzed node list as a real DecisionTree through the
/// serialize codec — the same constructor loaded models use, so the
/// fuzzer can only produce trees the decoder's validation admits.
std::unique_ptr<ml::DecisionTree> BuildFuzzTree(
    const std::vector<FuzzNode>& nodes, int num_features) {
  serialize::ByteWriter writer;
  ml::TreeConfig config;
  writer.WriteF64(config.max_features_fraction);
  writer.WriteBool(config.max_features_sqrt);
  writer.WriteF64(config.min_weight_fraction);
  writer.WriteI32(config.max_depth);
  writer.WriteU64(config.seed);
  writer.WriteI32(num_features);
  writer.WriteF64(1.0);                              // total_weight
  writer.WriteI32(0);                                // depth (informational)
  writer.WriteU64(nodes.size());
  for (const FuzzNode& node : nodes) {
    writer.WriteI32(node.feature);
    writer.WriteF32(node.threshold);
    writer.WriteI32(node.left);
    writer.WriteI32(node.right);
    writer.WriteF32(node.prob);
  }
  writer.WriteF64Vector(
      std::vector<double>(static_cast<size_t>(num_features), 0.0));
  serialize::ByteReader reader(writer.bytes().data(), writer.bytes().size());
  std::unique_ptr<ml::DecisionTree> tree =
      serialize::ModelAccess::DecodeTree(&reader);
  EXPECT_NE(tree, nullptr) << reader.error();
  return tree;
}

TEST(FlatTreeFuzz, ThousandAdversarialTreesMatchScalar) {
  int trees_checked = 0;
  for (uint64_t seed = 0; seed < 1100; ++seed) {
    Rng rng(seed * 2654435761u + 17);
    const TreeShape shape = seed % 5 == 0   ? TreeShape::kSingleLeaf
                            : seed % 5 == 1 ? TreeShape::kDegenerateChain
                                            : TreeShape::kRandom;
    const int num_features = rng.UniformInt(1, 8);
    const int max_depth = shape == TreeShape::kDegenerateChain
                              ? rng.UniformInt(8, 24)
                              : rng.UniformInt(1, 7);
    std::vector<FuzzNode> nodes;
    GrowFuzzTree(&rng, 0, max_depth, num_features, shape, &nodes);
    std::unique_ptr<ml::DecisionTree> tree =
        BuildFuzzTree(nodes, num_features);
    ASSERT_NE(tree, nullptr);
    FlatForest flat = FlatForest::Compile(*tree);
    ASSERT_EQ(flat.num_nodes(), static_cast<int>(nodes.size()));
    Matrix<float> rows = AdversarialRows(16, num_features, seed + 900000);
    ExpectFlatMatchesScalar(*tree, flat, rows,
                            "fuzz tree seed " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
    ++trees_checked;
  }
  EXPECT_GE(trees_checked, 1000);
}

/// Fuzzed GBDTs: random strictly-increasing cut sets (including +-inf
/// endpoints and empty/constant features) and bin thresholds thrown across
/// and beyond the valid range, so every branch of the bin->float threshold
/// conversion (nothing-left, NaN-only-left, cut compare, everything-left)
/// is exercised.
std::unique_ptr<ml::Gbdt> BuildFuzzGbdt(Rng* rng, int num_features,
                                        int num_trees) {
  serialize::ByteWriter writer;
  ml::GbdtConfig config;
  writer.WriteI32(config.num_iterations);
  writer.WriteF64(config.learning_rate);
  writer.WriteI32(config.num_leaves);
  writer.WriteI32(config.max_depth);
  writer.WriteI32(config.max_bins);
  writer.WriteF64(config.lambda_l2);
  writer.WriteF64(config.min_child_hessian);
  writer.WriteF64(config.feature_fraction);
  writer.WriteF64(config.bagging_fraction);
  writer.WriteU64(config.seed);
  writer.WriteI32(num_features);
  writer.WriteF64(rng->Gaussian(0.0, 1.0));  // base_score
  writer.WriteU64(static_cast<uint64_t>(num_features));
  std::vector<int> cut_counts;
  for (int f = 0; f < num_features; ++f) {
    std::vector<float> cuts;
    const int count = rng->UniformInt(0, 6);
    float previous = -std::numeric_limits<float>::infinity();
    if (count > 0 && rng->Bernoulli(0.15)) {
      cuts.push_back(previous);  // -inf as the lowest cut
    }
    for (int c = static_cast<int>(cuts.size()); c < count; ++c) {
      float next = static_cast<float>(rng->Gaussian(0.0, 2.0));
      if (!cuts.empty() && next <= cuts.back()) continue;
      cuts.push_back(next);
    }
    if (rng->Bernoulli(0.15)) {
      cuts.push_back(std::numeric_limits<float>::infinity());
    }
    cut_counts.push_back(static_cast<int>(cuts.size()));
    writer.WriteF32Vector(cuts);
  }
  writer.WriteU64(static_cast<uint64_t>(num_trees));
  for (int t = 0; t < num_trees; ++t) {
    std::vector<FuzzNode> nodes;
    GrowFuzzTree(rng, 0, rng->UniformInt(1, 6), num_features,
                 t % 3 == 0 ? TreeShape::kDegenerateChain : TreeShape::kRandom,
                 &nodes);
    writer.WriteU64(nodes.size());
    for (const FuzzNode& node : nodes) {
      writer.WriteI32(node.feature);
      if (node.feature >= 0) {
        // Bin thresholds across and beyond the valid range [0, cuts+1].
        const int cuts = cut_counts[static_cast<size_t>(node.feature)];
        writer.WriteI32(rng->UniformInt(-2, cuts + 2));
      } else {
        writer.WriteI32(0);
      }
      writer.WriteI32(node.left);
      writer.WriteI32(node.right);
      writer.WriteF64(node.feature >= 0 ? 0.0 : rng->Gaussian(0.0, 1.0));
    }
  }
  writer.WriteF64Vector(
      std::vector<double>(static_cast<size_t>(num_features), 0.0));
  writer.WriteF64Vector({});  // training loss
  serialize::ByteReader reader(writer.bytes().data(), writer.bytes().size());
  std::unique_ptr<ml::Gbdt> model = serialize::ModelAccess::DecodeGbdt(&reader);
  EXPECT_NE(model, nullptr) << reader.error();
  return model;
}

TEST(FlatTreeFuzz, AdversarialGbdtsMatchScalar) {
  for (uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);
    const int num_features = rng.UniformInt(1, 6);
    const int num_trees = rng.UniformInt(1, 4);
    std::unique_ptr<ml::Gbdt> model =
        BuildFuzzGbdt(&rng, num_features, num_trees);
    ASSERT_NE(model, nullptr);
    FlatForest flat = FlatForest::Compile(*model);
    Matrix<float> rows = AdversarialRows(24, num_features, seed + 700000);
    ExpectFlatMatchesScalar(*model, flat, rows,
                            "fuzz gbdt seed " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Runtime CPUID gate / kernel selection
// ---------------------------------------------------------------------------

TEST(FlatTreeSimd, SupportImpliesCompiledAndFallbackIsGraceful) {
  // Supported => compiled (the converse depends on the host CPU).
  if (FlatForest::SimdSupported()) {
    EXPECT_TRUE(FlatForest::SimdCompiled());
  }
  // An explicit AVX2 request must work on EVERY host: where AVX2 is
  // unsupported (or compiled out) it silently degrades to the scalar
  // kernel, with identical scores either way. This is the test that keeps
  // -DHOTSPOT_SIMD=OFF and non-AVX2 hosts green.
  ml::Dataset data = MakeDataset(100, 6, 55);
  ml::GbdtConfig config;
  config.num_iterations = 8;
  config.num_leaves = 6;
  config.max_bins = 16;
  ml::Gbdt model(config);
  model.Fit(data);
  FlatForest flat = FlatForest::Compile(model);
  std::vector<double> scalar =
      FlatPredictions(flat, data.features, FlatKernel::kScalar);
  std::vector<double> avx2 =
      FlatPredictions(flat, data.features, FlatKernel::kAvx2);
  ExpectBitwiseEqual(avx2, scalar, "explicit avx2 request");
}

TEST(FlatTreeSimd, DefaultKernelTracksCpuid) {
  EXPECT_EQ(FlatForest::ChooseKernel() == FlatKernel::kAvx2,
            FlatForest::SimdSupported());
}

}  // namespace
}  // namespace hotspot
