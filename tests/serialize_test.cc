// Lockdown tests for the versioned model-serialization subsystem:
//   * round-trip determinism — Save → Load → predictions must be bitwise
//     identical to the in-memory model, at HOTSPOT_NUM_THREADS 1 and 4,
//     for the GBDT, the random forest, the single tree and the imputer;
//   * corruption fuzz — truncations, byte flips, wrong magic, future or
//     retired format versions, kind mismatches and garbage payloads must
//     all be rejected with a clear error and no undefined behavior (this
//     suite runs under HOTSPOT_SANITIZE in CI);
//   * golden file — the checked-in fixed-seed bundle under tests/data/
//     must load and reproduce its checked-in predictions exactly.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/forecast_service.h"
#include "gtest/gtest.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "nn/imputer.h"
#include "serialize/bundle.h"
#include "serialize/model_io.h"
#include "serialize_golden.h"
#include "thread_matrix.h"
#include "util/rng.h"

#ifndef HOTSPOT_TEST_DATA_DIR
#define HOTSPOT_TEST_DATA_DIR "."
#endif

namespace hotspot {
namespace {

// Thread sweeps below use the shared matrix from tests/thread_matrix.h
// (serial reference first; override with HOTSPOT_TEST_THREAD_MATRIX).

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hotspot_serialize_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

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

std::vector<double> Predictions(const ml::BinaryClassifier& model,
                                const ml::Dataset& data) {
  std::vector<double> predictions;
  for (int i = 0; i < data.num_instances(); ++i) {
    predictions.push_back(model.PredictProba(data.features.Row(i)));
  }
  return predictions;
}

// ---------------------------------------------------------------------------
// Round-trip determinism
// ---------------------------------------------------------------------------

TEST_F(SerializeTest, GbdtRoundTripBitwiseIdentical) {
  ml::Dataset data = MakeDataset(300, 10, 99);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ml::GbdtConfig config;
    config.num_iterations = 20;
    config.num_leaves = 9;
    config.max_bins = 16;
    config.feature_fraction = 0.7;
    config.bagging_fraction = 0.8;
    config.seed = 5;
    ml::Gbdt model(config);
    model.Fit(data);

    ASSERT_TRUE(serialize::SaveGbdt(Path("model.hsb"), model).ok);
    std::unique_ptr<ml::Gbdt> loaded;
    serialize::Status status = serialize::LoadGbdt(Path("model.hsb"),
                                                   &loaded);
    ASSERT_TRUE(status.ok) << status.error;
    ASSERT_NE(loaded, nullptr);

    // Exact (==) comparisons throughout: the contract is bitwise identity.
    EXPECT_EQ(Predictions(*loaded, data), Predictions(model, data))
        << threads << " threads";
    EXPECT_EQ(loaded->FeatureImportances(), model.FeatureImportances())
        << threads << " threads";
    EXPECT_EQ(loaded->training_loss(), model.training_loss())
        << threads << " threads";
    for (int i = 0; i < data.num_instances(); ++i) {
      EXPECT_EQ(loaded->PredictRaw(data.features.Row(i)),
                model.PredictRaw(data.features.Row(i)));
    }
  });
}

TEST_F(SerializeTest, RandomForestRoundTripBitwiseIdentical) {
  ml::Dataset data = MakeDataset(250, 8, 11);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ml::ForestConfig config;
    config.num_trees = 10;
    config.seed = 3;
    ml::RandomForest model(config);
    model.Fit(data);

    ASSERT_TRUE(serialize::SaveRandomForest(Path("forest.hsb"), model).ok);
    std::unique_ptr<ml::RandomForest> loaded;
    serialize::Status status =
        serialize::LoadRandomForest(Path("forest.hsb"), &loaded);
    ASSERT_TRUE(status.ok) << status.error;
    ASSERT_NE(loaded, nullptr);

    EXPECT_EQ(Predictions(*loaded, data), Predictions(model, data))
        << threads << " threads";
    EXPECT_EQ(loaded->FeatureImportances(), model.FeatureImportances())
        << threads << " threads";
  });
}

TEST_F(SerializeTest, DecisionTreeRoundTripBitwiseIdentical) {
  ml::Dataset data = MakeDataset(200, 6, 23);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ml::TreeConfig config;
    config.seed = 9;
    ml::DecisionTree model(config);
    model.Fit(data);

    ASSERT_TRUE(serialize::SaveDecisionTree(Path("tree.hsb"), model).ok);
    std::unique_ptr<ml::DecisionTree> loaded;
    serialize::Status status =
        serialize::LoadDecisionTree(Path("tree.hsb"), &loaded);
    ASSERT_TRUE(status.ok) << status.error;
    ASSERT_NE(loaded, nullptr);

    EXPECT_EQ(Predictions(*loaded, data), Predictions(model, data))
        << threads << " threads";
    EXPECT_EQ(loaded->FeatureImportances(), model.FeatureImportances())
        << threads << " threads";
  });
}

Tensor3<float> MakeKpis(int sectors, int hours, int kpis, uint64_t seed) {
  Tensor3<float> tensor(sectors, hours, kpis);
  Rng rng(seed);
  for (float& v : tensor.data()) {
    v = rng.Bernoulli(0.08) ? MissingValue()
                            : static_cast<float>(rng.Gaussian());
  }
  return tensor;
}

TEST_F(SerializeTest, ImputerRoundTripBitwiseIdentical) {
  Tensor3<float> kpis = MakeKpis(4, 24 * 7, 3, 61);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    nn::ImputerConfig config;
    config.slice_hours = 24;
    config.encoder_layers = 2;
    config.batch_size = 8;
    config.epochs = 2;
    config.seed = 41;
    nn::KpiImputer imputer(config);
    imputer.Fit(kpis);

    Tensor3<float> reference = kpis;
    imputer.Impute(&reference);

    ASSERT_TRUE(serialize::SaveImputer(Path("imputer.hsb"), imputer).ok);
    std::unique_ptr<nn::KpiImputer> loaded;
    serialize::Status status =
        serialize::LoadImputer(Path("imputer.hsb"), &loaded);
    ASSERT_TRUE(status.ok) << status.error;
    ASSERT_NE(loaded, nullptr);

    Tensor3<float> imputed = kpis;
    loaded->Impute(&imputed);
    EXPECT_EQ(imputed.data(), reference.data()) << threads << " threads";
  });
}

TEST_F(SerializeTest, ScoreConfigRoundTrip) {
  ScoreConfig config;
  config.indicators = {{1.5, 0.25, true}, {0.5, 0.9, false}, {2.0, 0.4,
                                                              true}};
  config.hot_threshold = 0.55;
  ASSERT_TRUE(serialize::SaveScoreConfig(Path("score.hsb"), config).ok);
  ScoreConfig loaded;
  serialize::Status status =
      serialize::LoadScoreConfig(Path("score.hsb"), &loaded);
  ASSERT_TRUE(status.ok) << status.error;
  ASSERT_EQ(loaded.num_indicators(), config.num_indicators());
  for (int k = 0; k < config.num_indicators(); ++k) {
    EXPECT_EQ(loaded.indicators[static_cast<size_t>(k)].weight,
              config.indicators[static_cast<size_t>(k)].weight);
    EXPECT_EQ(loaded.indicators[static_cast<size_t>(k)].threshold,
              config.indicators[static_cast<size_t>(k)].threshold);
    EXPECT_EQ(loaded.indicators[static_cast<size_t>(k)].higher_is_worse,
              config.indicators[static_cast<size_t>(k)].higher_is_worse);
  }
  EXPECT_EQ(loaded.hot_threshold, config.hot_threshold);
}

TEST_F(SerializeTest, NormalizationRoundTrip) {
  Tensor3<float> kpis = MakeKpis(3, 48, 4, 77);
  serialize::NormalizationStats stats =
      serialize::NormalizationFromKpis(kpis);
  ASSERT_EQ(stats.means.size(), 4u);
  ASSERT_TRUE(serialize::SaveNormalization(Path("norm.hsb"), stats).ok);
  serialize::NormalizationStats loaded;
  serialize::Status status =
      serialize::LoadNormalization(Path("norm.hsb"), &loaded);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(loaded, stats);
}

// ---------------------------------------------------------------------------
// Bundle + warm-start serving
// ---------------------------------------------------------------------------

/// One shared golden study per process (building it is the expensive part).
const Study& SharedStudy() {
  static const Study* study = new Study(testing::BuildGoldenStudy());
  return *study;
}

TEST_F(SerializeTest, BundleServingMatchesForecasterRun) {
  const Study& study = SharedStudy();
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig config = testing::GoldenForecastConfig();

  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ForecastResult reference = forecaster.Run(config);

    std::unique_ptr<serialize::ForecastBundle> bundle =
        forecaster.TrainBundle(config);
    bundle->score = study.score_config;
    bundle->normalization =
        serialize::NormalizationFromKpis(study.network.kpis);
    ASSERT_TRUE(serialize::SaveBundle(Path("bundle.hsb"), *bundle).ok);

    std::unique_ptr<ForecastService> service;
    serialize::Status status =
        ForecastService::Load(Path("bundle.hsb"), &service);
    ASSERT_TRUE(status.ok) << status.error;

    // The served bundle must reproduce Run()'s predictions bit for bit:
    // same seed stream at train time, same feature path at serve time.
    EXPECT_EQ(service->PredictAtDay(study.features, config.t),
              reference.predictions)
        << threads << " threads";

    // The tensor-batch entry point sees the same windows and must agree.
    const int hours = 24 * config.w;
    const int start = 24 * (config.t - config.w);
    Tensor3<float> windows(study.num_sectors(), hours,
                           study.features.num_channels());
    for (int i = 0; i < study.num_sectors(); ++i) {
      for (int j = 0; j < hours; ++j) {
        const float* src = study.features.tensor().Slice(i, start + j);
        float* dst = windows.Slice(i, j);
        for (int k = 0; k < study.features.num_channels(); ++k) {
          dst[k] = src[k];
        }
      }
    }
    EXPECT_EQ(service->Predict(windows), reference.predictions)
        << threads << " threads";

    // Round-tripped metadata survives.
    EXPECT_EQ(service->bundle().score.hot_threshold,
              study.score_config.hot_threshold);
    EXPECT_EQ(service->bundle().window_days, config.w);
    EXPECT_EQ(service->bundle().horizon_days, config.h);
  });
}

TEST_F(SerializeTest, BundleRoundTripForEveryClassifierKind) {
  const Study& study = SharedStudy();
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig config = testing::GoldenForecastConfig();
  config.forest.num_trees = 5;

  for (ModelKind model : {ModelKind::kTree, ModelKind::kRfRaw,
                          ModelKind::kRfF1, ModelKind::kRfF2,
                          ModelKind::kGbdt}) {
    config.model = model;
    ForecastResult reference = forecaster.Run(config);
    std::unique_ptr<serialize::ForecastBundle> bundle =
        forecaster.TrainBundle(config);
    bundle->score = study.score_config;
    ASSERT_TRUE(serialize::SaveBundle(Path("kind.hsb"), *bundle).ok)
        << ModelName(model);

    std::unique_ptr<ForecastService> service;
    serialize::Status status =
        ForecastService::Load(Path("kind.hsb"), &service);
    ASSERT_TRUE(status.ok) << ModelName(model) << ": " << status.error;
    EXPECT_EQ(service->PredictAtDay(study.features, config.t),
              reference.predictions)
        << ModelName(model);
  }
}

// ---------------------------------------------------------------------------
// Corruption fuzz
// ---------------------------------------------------------------------------

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class SerializeFuzzTest : public SerializeTest {
 protected:
  void SetUp() override {
    SerializeTest::SetUp();
    ml::Dataset data = MakeDataset(120, 6, 7);
    ml::GbdtConfig config;
    config.num_iterations = 5;
    config.num_leaves = 4;
    config.max_bins = 8;
    ml::Gbdt model(config);
    model.Fit(data);
    ASSERT_TRUE(serialize::SaveGbdt(Path("valid.hsb"), model).ok);
    valid_ = ReadFile(Path("valid.hsb"));
    ASSERT_GT(valid_.size(), 32u);
  }

  /// Loads `bytes` as a GBDT artifact; returns the (expected) error text.
  std::string LoadCorrupt(const std::vector<uint8_t>& bytes) {
    WriteFile(Path("corrupt.hsb"), bytes);
    std::unique_ptr<ml::Gbdt> loaded;
    serialize::Status status =
        serialize::LoadGbdt(Path("corrupt.hsb"), &loaded);
    EXPECT_FALSE(status.ok) << "corrupt file accepted";
    EXPECT_FALSE(status.error.empty());
    EXPECT_EQ(loaded, nullptr) << "output written despite failure";
    return status.error;
  }

  std::vector<uint8_t> valid_;
};

TEST_F(SerializeFuzzTest, EveryTruncationRejected) {
  // Every header prefix, then strided points through the payload. None may
  // crash, index out of bounds, or be accepted.
  for (size_t len = 0; len < valid_.size();
       len = len < 40 ? len + 1 : len + 97) {
    std::vector<uint8_t> truncated(valid_.begin(),
                                   valid_.begin() +
                                       static_cast<ptrdiff_t>(len));
    LoadCorrupt(truncated);
  }
}

TEST_F(SerializeFuzzTest, EveryByteFlipRejected) {
  // The header is fully validated and the payload is checksummed, so any
  // single corrupted byte must surface as an error.
  for (size_t pos = 0; pos < valid_.size();
       pos = pos < 48 ? pos + 1 : pos + 131) {
    std::vector<uint8_t> flipped = valid_;
    flipped[pos] ^= 0xff;
    LoadCorrupt(flipped);
  }
}

TEST_F(SerializeFuzzTest, WrongMagicNamed) {
  std::vector<uint8_t> bad = valid_;
  bad[0] = 'X';
  EXPECT_NE(LoadCorrupt(bad).find("magic"), std::string::npos);
}

TEST_F(SerializeFuzzTest, FutureFormatVersionNamed) {
  std::vector<uint8_t> future = valid_;
  future[8] = 0x63;  // little-endian version 99
  future[9] = future[10] = future[11] = 0;
  std::string error = LoadCorrupt(future);
  EXPECT_NE(error.find("version 99"), std::string::npos) << error;
  EXPECT_NE(error.find("newer"), std::string::npos) << error;
}

TEST_F(SerializeFuzzTest, WrongArtifactKindNamed) {
  ScoreConfig config;
  config.indicators = {{1.0, 0.5, true}};
  ASSERT_TRUE(serialize::SaveScoreConfig(Path("score.hsb"), config).ok);
  std::unique_ptr<ml::Gbdt> loaded;
  serialize::Status status = serialize::LoadGbdt(Path("score.hsb"),
                                                 &loaded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("kind"), std::string::npos) << status.error;
  EXPECT_EQ(loaded, nullptr);
}

TEST_F(SerializeFuzzTest, TrailingGarbageRejected) {
  std::vector<uint8_t> padded = valid_;
  padded.insert(padded.end(), {0xde, 0xad, 0xbe, 0xef});
  std::string error = LoadCorrupt(padded);
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
}

TEST_F(SerializeFuzzTest, ChecksummedGarbagePayloadRejected) {
  // A well-framed file whose payload is random bytes: the container checks
  // pass, so this exercises the structural validation of the decoder.
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    std::vector<uint8_t> payload(256 + static_cast<size_t>(seed) * 97);
    for (uint8_t& b : payload) {
      b = static_cast<uint8_t>(rng.NextUint64() & 0xff);
    }
    ASSERT_TRUE(serialize::WriteArtifactFile(Path("garbage.hsb"),
                                             serialize::ArtifactKind::kGbdt,
                                             payload)
                    .ok);
    std::unique_ptr<ml::Gbdt> loaded;
    serialize::Status status =
        serialize::LoadGbdt(Path("garbage.hsb"), &loaded);
    EXPECT_FALSE(status.ok) << "seed " << seed;
    EXPECT_EQ(loaded, nullptr);
  }
}

TEST_F(SerializeFuzzTest, CorruptBundleRejectedByService) {
  // valid.hsb is a GBDT artifact, not a bundle: the service must refuse it.
  std::unique_ptr<ForecastService> service;
  serialize::Status status =
      ForecastService::Load(Path("valid.hsb"), &service);
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(service, nullptr);
}

TEST_F(SerializeFuzzTest, CorruptedBundlePromotionFailsAtomically) {
  // The hot-swap deployment path: an operator drops a new bundle file next
  // to a live ForecastService and promotes it. This fuzz drives that whole
  // path with damaged files — every corrupted or truncated candidate must
  // be refused with a real error, and the service must keep serving its
  // old bundle bit for bit, at its old generation, after every attempt.
  const Study& study = SharedStudy();
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig config = testing::GoldenForecastConfig();
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = study.score_config;
  ASSERT_TRUE(serialize::SaveBundle(Path("swap.hsb"), *bundle).ok);
  const std::vector<uint8_t> good = ReadFile(Path("swap.hsb"));
  ASSERT_GT(good.size(), 64u);

  ForecastService service(serialize::CloneBundle(*bundle));
  const std::vector<float> before =
      service.PredictAtDay(study.features, config.t);

  // Loads `bytes` as a bundle and, if it somehow loads, promotes it —
  // exactly what a deployment agent would do. Returns the failure text.
  auto attempt_swap = [&](const std::vector<uint8_t>& bytes) {
    WriteFile(Path("swap_corrupt.hsb"), bytes);
    std::unique_ptr<serialize::ForecastBundle> next;
    serialize::Status status =
        serialize::LoadBundle(Path("swap_corrupt.hsb"), &next);
    if (status.ok) {
      status = service.PromoteBundle(std::move(next));
    } else {
      EXPECT_EQ(next, nullptr) << "output written despite failure";
    }
    EXPECT_FALSE(status.ok) << "corrupt bundle promoted";
    EXPECT_FALSE(status.error.empty());
    return status.error;
  };

  for (size_t len = 0; len < good.size();
       len = len < 40 ? len + 1 : len + 211) {
    attempt_swap(std::vector<uint8_t>(
        good.begin(), good.begin() + static_cast<ptrdiff_t>(len)));
  }
  for (size_t pos = 0; pos < good.size();
       pos = pos < 48 ? pos + 1 : pos + 307) {
    std::vector<uint8_t> flipped = good;
    flipped[pos] ^= 0xff;
    attempt_swap(flipped);
  }

  // A well-framed bundle from a newer binary: re-frame the valid payload
  // (fresh checksum) with its first section's version bumped to 99. The
  // refusal must name the section — the operator learns which part of the
  // bundle their serving binary is too old for, not just "bad file".
  {
    serialize::ByteWriter writer;
    serialize::EncodeBundle(*bundle, &writer);
    std::vector<uint8_t> payload = writer.TakeBytes();
    // Sectioned payload layout: 20-byte window-spec header, u32 section
    // count, then the first section's [id u32][version u32] at offset 24.
    payload[28] = 99;
    payload[29] = payload[30] = payload[31] = 0;
    ASSERT_TRUE(serialize::WriteArtifactFile(
                    Path("swap_future.hsb"),
                    serialize::ArtifactKind::kForecastBundle, payload)
                    .ok);
    std::unique_ptr<serialize::ForecastBundle> next;
    serialize::Status status =
        serialize::LoadBundle(Path("swap_future.hsb"), &next);
    ASSERT_FALSE(status.ok);
    EXPECT_EQ(next, nullptr);
    EXPECT_NE(status.error.find("section version 99"), std::string::npos)
        << status.error;
    EXPECT_NE(status.error.find("newer"), std::string::npos) << status.error;
  }

  // Atomicity, the whole point: nothing above moved the generation, and
  // the old bundle still serves the exact same bits.
  EXPECT_EQ(service.generation(), 0u);
  EXPECT_EQ(service.PredictAtDay(study.features, config.t), before);

  // And the swap path itself still works: the undamaged file promotes.
  std::unique_ptr<serialize::ForecastBundle> fresh;
  ASSERT_TRUE(serialize::LoadBundle(Path("swap.hsb"), &fresh).ok);
  uint64_t generation = 0;
  ASSERT_TRUE(service.PromoteBundle(std::move(fresh), &generation).ok);
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(service.PredictAtDay(study.features, config.t), before);
}

// ---------------------------------------------------------------------------
// Golden file
// ---------------------------------------------------------------------------

TEST(SerializeGolden, CheckedInBundleReproducesGoldenPredictions) {
  const std::string dir = HOTSPOT_TEST_DATA_DIR;

  std::vector<float> golden;
  ASSERT_TRUE(testing::ReadGoldenPredictions(
      dir + "/" + testing::kGoldenPredictionsFile, &golden))
      << "missing fixture; regenerate with make_serialize_golden";

  std::unique_ptr<ForecastService> service;
  serialize::Status status = ForecastService::Load(
      dir + "/" + testing::kGoldenBundleFile, &service);
  ASSERT_TRUE(status.ok) << status.error;

  // The current-format fixture carries monitoring fingerprints, so the
  // service comes up with the online monitor armed.
  EXPECT_NE(service->bundle().fingerprints, nullptr);
  EXPECT_TRUE(service->monitoring_enabled());

  const Study& study = SharedStudy();
  ForecastConfig config = testing::GoldenForecastConfig();
  // Exact equality: the fixture stores hex floats, which carry the full
  // bit pattern through text.
  EXPECT_EQ(service->PredictAtDay(study.features, config.t), golden);

  // And the bundle's training is reproducible from source: retraining at
  // the golden seed yields the same predictions as the checked-in file.
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  EXPECT_EQ(forecaster.Run(config).predictions, golden);
}

TEST_F(SerializeTest, FormatV1BundleIsRefusedByVersion) {
  // The pre-section v1 layout is no longer read: the golden bundle with its
  // header version word (bytes 8..11, outside the checksummed payload) set
  // to 1 must be refused by name, not parsed as a current-layout payload.
  std::vector<uint8_t> bytes = ReadFile(std::string(HOTSPOT_TEST_DATA_DIR) +
                                        "/" + testing::kGoldenBundleFile);
  ASSERT_GT(bytes.size(), 32u);
  bytes[8] = 1;
  bytes[9] = bytes[10] = bytes[11] = 0;
  WriteFile(Path("v1.hsb"), bytes);
  std::unique_ptr<ForecastService> service;
  serialize::Status status = ForecastService::Load(Path("v1.hsb"), &service);
  ASSERT_FALSE(status.ok);
  EXPECT_EQ(service, nullptr);
  EXPECT_NE(status.error.find("format version 1"), std::string::npos)
      << status.error;
}

// ---------------------------------------------------------------------------
// Per-section version skew
// ---------------------------------------------------------------------------

uint32_t ReadU32At(const std::vector<uint8_t>& bytes, size_t pos) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(bytes[pos + static_cast<size_t>(i)])
             << (8 * i);
  }
  return value;
}

uint64_t ReadU64At(const std::vector<uint8_t>& bytes, size_t pos) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(bytes[pos + static_cast<size_t>(i)])
             << (8 * i);
  }
  return value;
}

void WriteU32At(std::vector<uint8_t>* bytes, size_t pos, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[pos + static_cast<size_t>(i)] =
        static_cast<uint8_t>(value >> (8 * i));
  }
}

class SerializeSectionTest : public SerializeTest {
 protected:
  void SetUp() override {
    SerializeTest::SetUp();
    // Extract the sectioned payload of a freshly trained bundle.
    const Study& study = SharedStudy();
    Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
    std::unique_ptr<serialize::ForecastBundle> bundle =
        forecaster.TrainBundle(testing::GoldenForecastConfig());
    bundle->score = study.score_config;
    ASSERT_TRUE(serialize::SaveBundle(Path("bundle.hsb"), *bundle).ok);
    serialize::Status status = serialize::ReadArtifactFile(
        Path("bundle.hsb"), serialize::ArtifactKind::kForecastBundle,
        &payload_);
    ASSERT_TRUE(status.ok) << status.error;
  }

  /// Byte offset of the (id, version, size) frame of the section with
  /// `target_id` inside the payload, or npos. Layout: 20 header bytes,
  /// u32 section count, then (u32 id, u32 version, u64 size, body)*.
  size_t SectionOffset(uint32_t target_id) const {
    size_t off = 20;
    uint32_t count = ReadU32At(payload_, off);
    off += 4;
    for (uint32_t s = 0; s < count; ++s) {
      if (ReadU32At(payload_, off) == target_id) return off;
      off += 16 + ReadU64At(payload_, off + 8);
    }
    return std::string::npos;
  }

  /// Re-frames the (possibly patched) payload with a fresh checksum and
  /// loads it as a bundle, returning the load error ("" on success).
  std::string LoadPatched() {
    EXPECT_TRUE(serialize::WriteArtifactFile(
                    Path("patched.hsb"),
                    serialize::ArtifactKind::kForecastBundle, payload_)
                    .ok);
    std::unique_ptr<serialize::ForecastBundle> bundle;
    serialize::Status status =
        serialize::LoadBundle(Path("patched.hsb"), &bundle);
    if (status.ok) {
      EXPECT_NE(bundle, nullptr);
      return "";
    }
    EXPECT_EQ(bundle, nullptr);
    return status.error;
  }

  std::vector<uint8_t> payload_;
};

TEST_F(SerializeSectionTest, UnpatchedPayloadHasAllFiveSections) {
  for (uint32_t id : {1u, 2u, 3u, 4u, 5u}) {
    EXPECT_NE(SectionOffset(id), std::string::npos) << "section " << id;
  }
  EXPECT_EQ(LoadPatched(), "");
}

TEST_F(SerializeSectionTest, SkewErrorNamesTheExactSection) {
  // A future version of each section in turn: the error must say which
  // section is unreadable, not just "bad file".
  const struct {
    uint32_t id;
    const char* name;
  } kSections[] = {{1, "score_config"},
                   {2, "normalization"},
                   {3, "classifier"},
                   {4, "fingerprints"},
                   {5, "flat_forest"}};
  for (const auto& section : kSections) {
    std::vector<uint8_t> pristine = payload_;
    size_t off = SectionOffset(section.id);
    ASSERT_NE(off, std::string::npos) << section.name;
    WriteU32At(&payload_, off + 4, 99);  // the section's version field
    std::string error = LoadPatched();
    EXPECT_NE(error.find(std::string("'") + section.name + "'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("version 99"), std::string::npos) << error;
    EXPECT_NE(error.find("newer"), std::string::npos) << error;
    payload_ = pristine;
  }
}

TEST_F(SerializeSectionTest, FlatSectionVersion1IsRefusedByName) {
  // flat_forest v1 carried the quantized variant's arrays; v2 dropped them,
  // so a v1 section is refused rather than misread.
  size_t off = SectionOffset(5);
  ASSERT_NE(off, std::string::npos);
  WriteU32At(&payload_, off + 4, 1);  // the section's version field
  std::string error = LoadPatched();
  EXPECT_NE(error.find("'flat_forest'"), std::string::npos) << error;
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
}

TEST_F(SerializeSectionTest, UnknownSectionIdIsRejectedByNumber) {
  size_t off = SectionOffset(4);
  ASSERT_NE(off, std::string::npos);
  WriteU32At(&payload_, off, 77);  // an id this binary has never heard of
  std::string error = LoadPatched();
  EXPECT_NE(error.find("section id 77"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Flat-forest section fuzz: the SIMD engine's serialized form is a derived
// artifact, so ANY corruption of its section — truncation, byte flip, bad
// child offset — must fail the load with an error naming 'flat_forest'
// (never a generic parse error, never an out-of-bounds read; the latter is
// what the HOTSPOT_SANITIZE builds of this suite pin).
// ---------------------------------------------------------------------------

class FlatSectionFuzzTest : public SerializeSectionTest {
 protected:
  static constexpr uint32_t kFlatId = 5;

  void SetUp() override {
    SerializeTest::SetUp();
    // The golden study's hot threshold yields an all-leaf model (no
    // positive labels to split on), which would leave the node-graph
    // checks unexercised. A lower threshold gives the same pipeline a
    // classifier with real internal nodes. The payload is built once and
    // cached — the study build dominates this suite's runtime.
    static const std::vector<uint8_t>* const cached = [] {
      StudyOptions options;
      options.hot_threshold_override = 0.5;
      Study study = BuildStudy(testing::GoldenNetworkConfig(), options);
      Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
      std::unique_ptr<serialize::ForecastBundle> bundle =
          forecaster.TrainBundle(testing::GoldenForecastConfig());
      bundle->score = study.score_config;
      serialize::ByteWriter writer;
      serialize::EncodeBundle(*bundle, &writer);
      return new std::vector<uint8_t>(writer.bytes());
    }();
    payload_ = *cached;
  }

  /// Offset of the first body byte of the flat section.
  size_t BodyOffset() const {
    size_t off = SectionOffset(kFlatId);
    EXPECT_NE(off, std::string::npos);
    return off + 16;
  }
  size_t BodySize() const {
    return static_cast<size_t>(ReadU64At(payload_, SectionOffset(kFlatId) + 8));
  }
};

TEST_F(FlatSectionFuzzTest, EveryBodyByteFlipNamesTheFlatSection) {
  const std::vector<uint8_t> pristine = payload_;
  const size_t body = BodyOffset();
  const size_t size = BodySize();
  ASSERT_GT(size, 0u);
  // Exhaustive single-byte corruption of the whole section body: XOR-0xFF
  // plus a single-bit flip at every position. Either the structural
  // validation rejects the section or the recompile-and-byte-compare
  // against the classifier does; both name flat_forest.
  int checked = 0;
  for (size_t pos = 0; pos < size; ++pos) {
    for (uint8_t mask : {uint8_t{0xFF}, uint8_t{0x01}}) {
      payload_ = pristine;
      payload_[body + pos] ^= mask;
      std::string error = LoadPatched();
      ASSERT_FALSE(error.empty())
          << "flip at body byte " << pos << " mask " << int(mask)
          << " loaded successfully";
      ASSERT_NE(error.find("flat_forest"), std::string::npos)
          << "flip at body byte " << pos << " mask " << int(mask)
          << " produced an unattributed error: " << error;
      ++checked;
    }
  }
  EXPECT_GE(checked, 2 * static_cast<int>(size));
  payload_ = pristine;
}

TEST_F(FlatSectionFuzzTest, TruncationsInsideTheFlatSectionAreNamed) {
  const std::vector<uint8_t> pristine = payload_;
  const size_t body = BodyOffset();
  const size_t size = BodySize();
  // The flat section is written last, so cutting the payload anywhere
  // inside its body makes the declared section size exceed what remains.
  for (size_t keep : {size_t{0}, size_t{1}, size / 2, size - 1}) {
    payload_ = pristine;
    payload_.resize(body + keep);
    std::string error = LoadPatched();
    ASSERT_FALSE(error.empty()) << "keep=" << keep;
    EXPECT_NE(error.find("flat_forest"), std::string::npos)
        << "keep=" << keep << ": " << error;
    EXPECT_NE(error.find("exceeds payload"), std::string::npos)
        << "keep=" << keep << ": " << error;
  }
  // Shrinking the declared size instead bounds the sub-reader short of
  // the real contents: the decode runs out mid-field and the error still
  // names the section.
  payload_ = pristine;
  const size_t frame = SectionOffset(kFlatId);
  for (uint64_t declared : {uint64_t{0}, uint64_t{24}, uint64_t{size / 2}}) {
    payload_ = pristine;
    for (int i = 0; i < 8; ++i) {
      payload_[frame + 8 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(declared >> (8 * i));
    }
    // Keep the overall payload well-formed by also cutting the body to
    // the declared size (the section is last).
    payload_.resize(frame + 16 + static_cast<size_t>(declared));
    std::string error = LoadPatched();
    ASSERT_FALSE(error.empty()) << "declared=" << declared;
    EXPECT_NE(error.find("flat_forest"), std::string::npos)
        << "declared=" << declared << ": " << error;
  }
  payload_ = pristine;
}

TEST_F(FlatSectionFuzzTest, ChildOffsetOutOfRangeIsStructurallyRejected) {
  const std::vector<uint8_t> pristine = payload_;
  const size_t body = BodyOffset();
  // Body layout: u32 aggregation, i32 num_features, f64 base_score,
  // u64 num_nodes, then 25-byte nodes (i32 feature, f32 threshold,
  // u8 miss_left, i32 left, i32 right, f64 leaf_value).
  const uint64_t num_nodes = ReadU64At(payload_, body + 16);
  ASSERT_GT(num_nodes, 0u);
  const size_t nodes = body + 24;
  // Find the first internal node (feature >= 0).
  size_t internal = std::string::npos;
  for (uint64_t i = 0; i < num_nodes; ++i) {
    const size_t node = nodes + static_cast<size_t>(i) * 25;
    if (static_cast<int32_t>(ReadU32At(payload_, node)) >= 0) {
      internal = node;
      break;
    }
  }
  ASSERT_NE(internal, std::string::npos) << "model has no internal nodes";
  const struct {
    size_t field_offset;  // within the node record
    uint32_t value;
    const char* what;
  } kPatches[] = {
      {9, 0x7FFFFFFFu, "left child past the node array"},
      {13, 0x7FFFFFFFu, "right child past the node array"},
      {9, 0u, "left child pointing backwards"},
      {13, static_cast<uint32_t>(-1), "negative right child"},
  };
  for (const auto& patch : kPatches) {
    payload_ = pristine;
    WriteU32At(&payload_, internal + patch.field_offset, patch.value);
    std::string error = LoadPatched();
    ASSERT_FALSE(error.empty()) << patch.what;
    EXPECT_NE(error.find("flat_forest"), std::string::npos)
        << patch.what << ": " << error;
    EXPECT_NE(error.find("node graph invalid"), std::string::npos)
        << patch.what << ": " << error;
  }
  payload_ = pristine;
}

TEST_F(FlatSectionFuzzTest, LeafValueFlipIsCaughtByTheClassifierCheck) {
  // A flipped leaf payload survives every structural check — only the
  // recompile-and-byte-compare against the shipped classifier can catch
  // it. Find a node with feature == -1 and flip a bit of its leaf value.
  const size_t body = BodyOffset();
  const uint64_t num_nodes = ReadU64At(payload_, body + 16);
  const size_t nodes = body + 24;
  size_t leaf = std::string::npos;
  for (uint64_t i = 0; i < num_nodes; ++i) {
    const size_t node = nodes + static_cast<size_t>(i) * 25;
    if (static_cast<int32_t>(ReadU32At(payload_, node)) == -1) {
      leaf = node;
      break;
    }
  }
  ASSERT_NE(leaf, std::string::npos);
  payload_[leaf + 17] ^= 0x01;  // low mantissa bit of the f64 leaf value
  std::string error = LoadPatched();
  ASSERT_FALSE(error.empty());
  EXPECT_NE(error.find("does not match its classifier"), std::string::npos)
      << error;
}

TEST_F(SerializeSectionTest, MissingRequiredSectionIsNamed) {
  // Truncate the section table to just the first (score_config) section:
  // the loader must name a missing required section rather than serve a
  // half-initialized bundle.
  size_t first = SectionOffset(1);
  size_t second = SectionOffset(2);
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  payload_.resize(second);
  WriteU32At(&payload_, 20, 1);  // section count
  std::string error = LoadPatched();
  EXPECT_NE(error.find("missing"), std::string::npos) << error;
  EXPECT_NE(error.find("normalization"), std::string::npos) << error;
}

}  // namespace
}  // namespace hotspot
