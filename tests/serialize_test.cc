// Lockdown tests for the versioned model-serialization subsystem:
//   * round-trip determinism — encode → decode → predictions must be
//     bitwise identical to the in-memory model over the thread matrix, for
//     the GBDT, the random forest and the single tree, and a saved bundle
//     must serve Run()'s predictions bit for bit;
//   * corruption fuzz — truncations, byte flips, wrong magic, future or
//     retired format versions, kind mismatches, garbage payloads and
//     hostile classifier sections must all be rejected with a named error
//     and no undefined behavior (this suite runs under HOTSPOT_SANITIZE);
//   * golden file — the checked-in fixed-seed bundle under tests/data/
//     must load and reproduce its checked-in predictions exactly, must be
//     byte-identical to the bundle retrained from source, and the golden
//     GBDT fit shapes must train to their checked-in digests.
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/forecast_service.h"
#include "gtest/gtest.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
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

/// Encodes `model` with its ModelAccess codec and decodes the bytes back;
/// the decoder must accept them and consume them exactly.
template <typename Model>
std::unique_ptr<Model> RoundTrip(
    const Model& model,
    void (*encode)(const Model&, serialize::ByteWriter*),
    std::unique_ptr<Model> (*decode)(serialize::ByteReader*)) {
  serialize::ByteWriter writer;
  encode(model, &writer);
  serialize::ByteReader reader(writer.bytes().data(), writer.bytes().size());
  std::unique_ptr<Model> decoded = decode(&reader);
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.AtEnd()) << "decoder left bytes unread";
  return decoded;
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

    std::unique_ptr<ml::Gbdt> loaded =
        RoundTrip(model, &serialize::ModelAccess::EncodeGbdt,
                  &serialize::ModelAccess::DecodeGbdt);
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

    std::unique_ptr<ml::RandomForest> loaded =
        RoundTrip(model, &serialize::ModelAccess::EncodeForest,
                  &serialize::ModelAccess::DecodeForest);
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

    std::unique_ptr<ml::DecisionTree> loaded =
        RoundTrip(model, &serialize::ModelAccess::EncodeTree,
                  &serialize::ModelAccess::DecodeTree);
    ASSERT_NE(loaded, nullptr);

    EXPECT_EQ(Predictions(*loaded, data), Predictions(model, data))
        << threads << " threads";
    EXPECT_EQ(loaded->FeatureImportances(), model.FeatureImportances())
        << threads << " threads";
  });
}

// ---------------------------------------------------------------------------
// Bundle + warm-start serving
// ---------------------------------------------------------------------------

/// One shared golden study per process (building it is the expensive part).
const Study& SharedStudy() {
  static const Study* study = new Study(testing::BuildGoldenStudy());
  return *study;
}

/// The golden network under a lower hot threshold. The golden study's
/// threshold leaves no positive labels to split on, so its GBDT is all
/// leaves; this one's has real internal nodes.
const Study& SplitStudy() {
  static const Study* study = [] {
    StudyOptions options;
    options.hot_threshold_override = 0.5;
    return new Study(BuildStudy(testing::GoldenNetworkConfig(), options));
  }();
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

TEST_F(SerializeTest, BundleRoundTripPreservesScoreConfig) {
  // The score config rides only inside a bundle; a save/load pair must
  // hand it back exactly.
  const Study& study = SharedStudy();
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(testing::GoldenForecastConfig());
  ScoreConfig score;
  score.indicators = {{1.5, 0.25, true}, {0.5, 0.9, false}, {2.0, 0.4, true}};
  score.hot_threshold = 0.55;
  bundle->score = score;
  ASSERT_TRUE(serialize::SaveBundle(Path("meta.hsb"), *bundle).ok);

  std::unique_ptr<serialize::ForecastBundle> loaded;
  serialize::Status status = serialize::LoadBundle(Path("meta.hsb"), &loaded);
  ASSERT_TRUE(status.ok) << status.error;
  ASSERT_EQ(loaded->score.num_indicators(), score.num_indicators());
  for (size_t k = 0; k < score.indicators.size(); ++k) {
    EXPECT_EQ(loaded->score.indicators[k].weight, score.indicators[k].weight);
    EXPECT_EQ(loaded->score.indicators[k].threshold,
              score.indicators[k].threshold);
    EXPECT_EQ(loaded->score.indicators[k].higher_is_worse,
              score.indicators[k].higher_is_worse);
  }
  EXPECT_EQ(loaded->score.hot_threshold, score.hot_threshold);
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
    // A saved bundle of the golden study's model. The payload is encoded
    // once per process; every test frames it into its own file.
    static const std::vector<uint8_t>* const payload = [] {
      const Study& study = SharedStudy();
      std::unique_ptr<serialize::ForecastBundle> bundle =
          testing::BuildGoldenBundle(study);
      serialize::ByteWriter writer;
      serialize::EncodeBundle(*bundle, &writer);
      return new std::vector<uint8_t>(writer.TakeBytes());
    }();
    ASSERT_TRUE(serialize::WriteArtifactFile(Path("valid.hsb"), *payload).ok);
    valid_ = ReadFile(Path("valid.hsb"));
    ASSERT_GT(valid_.size(), 32u);
  }

  /// Loads `bytes` as a bundle; returns the (expected) error text.
  std::string LoadCorrupt(const std::vector<uint8_t>& bytes) {
    WriteFile(Path("corrupt.hsb"), bytes);
    std::unique_ptr<serialize::ForecastBundle> loaded;
    serialize::Status status =
        serialize::LoadBundle(Path("corrupt.hsb"), &loaded);
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
  // Kinds 1-6 were the retired single-model formats; the kind word
  // (bytes 12..15) sits outside the checksummed payload.
  for (uint8_t kind : {uint8_t{1}, uint8_t{6}, uint8_t{8}}) {
    std::vector<uint8_t> other = valid_;
    other[12] = kind;
    std::string error = LoadCorrupt(other);
    EXPECT_NE(error.find("artifact kind " + std::to_string(kind)),
              std::string::npos)
        << error;
  }
}

TEST_F(SerializeFuzzTest, TrailingGarbageRejected) {
  std::vector<uint8_t> padded = valid_;
  padded.insert(padded.end(), {0xde, 0xad, 0xbe, 0xef});
  std::string error = LoadCorrupt(padded);
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
}

TEST_F(SerializeFuzzTest, ChecksummedGarbagePayloadRejected) {
  // Random payload bytes go straight to each classifier decoder and to the
  // bundle decoder, and framed as a well-formed file (the container checks
  // pass) through LoadBundle: this exercises the decoders' structural
  // validation. Every decode must fail with a reason and no crash.
  using serialize::ByteReader;
  using serialize::ModelAccess;
  const std::vector<
      std::pair<const char*, std::function<bool(ByteReader*)>>>
      decoders = {
          {"gbdt",
           [](ByteReader* r) { return ModelAccess::DecodeGbdt(r) != nullptr; }},
          {"forest",
           [](ByteReader* r) {
             return ModelAccess::DecodeForest(r) != nullptr;
           }},
          {"tree",
           [](ByteReader* r) { return ModelAccess::DecodeTree(r) != nullptr; }},
          {"bundle",
           [](ByteReader* r) {
             return serialize::DecodeBundle(r) != nullptr;
           }},
      };
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    std::vector<uint8_t> payload(256 + static_cast<size_t>(seed) * 97);
    for (uint8_t& b : payload) {
      b = static_cast<uint8_t>(rng.NextUint64() & 0xff);
    }
    for (const auto& [name, decode] : decoders) {
      ByteReader reader(payload.data(), payload.size());
      EXPECT_FALSE(decode(&reader)) << name << " seed " << seed;
      EXPECT_FALSE(reader.ok()) << name << " seed " << seed;
      EXPECT_FALSE(reader.error().empty()) << name << " seed " << seed;
    }
    ASSERT_TRUE(
        serialize::WriteArtifactFile(Path("garbage.hsb"), payload).ok);
    std::unique_ptr<serialize::ForecastBundle> loaded;
    serialize::Status status =
        serialize::LoadBundle(Path("garbage.hsb"), &loaded);
    EXPECT_FALSE(status.ok) << "seed " << seed;
    EXPECT_EQ(loaded, nullptr);
  }
}

TEST_F(SerializeFuzzTest, CorruptBundleRejectedByService) {
  // A single-GBDT file as older binaries wrote them (artifact kind 1): the
  // service must refuse it by kind rather than read a GBDT as a bundle.
  ml::GbdtConfig config;
  config.num_iterations = 5;
  config.num_leaves = 4;
  config.max_bins = 8;
  ml::Gbdt model(config);
  model.Fit(MakeDataset(120, 6, 7));
  serialize::ByteWriter writer;
  serialize::ModelAccess::EncodeGbdt(model, &writer);
  ASSERT_TRUE(
      serialize::WriteArtifactFile(Path("gbdt.hsb"), writer.bytes()).ok);
  std::vector<uint8_t> bytes = ReadFile(Path("gbdt.hsb"));
  bytes[12] = 1;
  WriteFile(Path("gbdt.hsb"), bytes);
  std::unique_ptr<ForecastService> service;
  serialize::Status status =
      ForecastService::Load(Path("gbdt.hsb"), &service);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("artifact kind 1"), std::string::npos)
      << status.error;
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
    ASSERT_TRUE(
        serialize::WriteArtifactFile(Path("swap_future.hsb"), payload).ok);
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
  // the golden seed yields the same predictions as the checked-in file,
  // and the retrained bundle encodes to its payload byte for byte (the
  // writer emits exactly the sections the fixture holds).
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  EXPECT_EQ(forecaster.Run(config).predictions, golden);
  std::vector<uint8_t> checked_in;
  status = serialize::ReadArtifactFile(dir + "/" + testing::kGoldenBundleFile,
                                       &checked_in);
  ASSERT_TRUE(status.ok) << status.error;
  serialize::ByteWriter retrained;
  serialize::EncodeBundle(*testing::BuildGoldenBundle(study), &retrained);
  EXPECT_TRUE(retrained.bytes() == checked_in)
      << "retrained golden bundle encodes to " << retrained.bytes().size()
      << " payload bytes, the checked-in file holds " << checked_in.size()
      << "; regenerate with make_serialize_golden if the change is intended";
}

TEST(SerializeGolden, GbdtFitsMatchCheckedInDigests) {
  // Every golden fit shape must train to the same model and loss bytes as
  // the checked-in digests, at every thread count: the GBDT fit path may be
  // rewritten for speed, but not change a bit of what it trains.
  std::ifstream in(std::string(HOTSPOT_TEST_DATA_DIR) + "/" +
                   testing::kGoldenGbdtFitsFile);
  ASSERT_TRUE(in) << "missing fixture; regenerate with make_serialize_golden";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }
  const std::vector<testing::GbdtFitShape> shapes =
      testing::GoldenGbdtFitShapes();
  ASSERT_EQ(golden.size(), shapes.size());
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      EXPECT_EQ(testing::GbdtFitDigestLine(shapes[s]), golden[s])
          << threads << " threads";
    }
  });
}

TEST(SerializeGolden, TreeFitsMatchCheckedInDigests) {
  // Every golden Tree and RandomForest fit shape must train to the same
  // model bytes and training-row scores as the checked-in digests, at
  // every thread count.
  std::ifstream in(std::string(HOTSPOT_TEST_DATA_DIR) + "/" +
                   testing::kGoldenTreeFitsFile);
  ASSERT_TRUE(in) << "missing fixture; regenerate with make_serialize_golden";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }
  const std::vector<testing::TreeFitShape> shapes =
      testing::GoldenTreeFitShapes();
  ASSERT_EQ(golden.size(), shapes.size());
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      EXPECT_EQ(testing::TreeFitDigestLine(shapes[s]), golden[s])
          << threads << " threads";
    }
  });
}

TEST(SerializeGolden, NetworksMatchCheckedInDigests) {
  // Every golden network shape must generate the same network and build
  // the same study as the checked-in digests, at every thread count.
  std::ifstream in(std::string(HOTSPOT_TEST_DATA_DIR) + "/" +
                   testing::kGoldenNetworksFile);
  ASSERT_TRUE(in) << "missing fixture; regenerate with make_serialize_golden";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(line);
  }
  const std::vector<testing::NetworkShape> shapes =
      testing::GoldenNetworkShapes();
  ASSERT_EQ(golden.size(), shapes.size());
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      EXPECT_EQ(testing::NetworkDigestLine(shapes[s]), golden[s])
          << threads << " threads";
    }
  });
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

void WriteU64At(std::vector<uint8_t>* bytes, size_t pos, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[pos + static_cast<size_t>(i)] =
        static_cast<uint8_t>(value >> (8 * i));
  }
}

class SerializeSectionTest : public SerializeTest {
 protected:
  void SetUp() override {
    SerializeTest::SetUp();
    // The sectioned payload of a bundle whose GBDT has internal nodes,
    // encoded once per process.
    static const std::vector<uint8_t>* const cached = [] {
      const Study& study = SplitStudy();
      Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
      std::unique_ptr<serialize::ForecastBundle> bundle =
          forecaster.TrainBundle(testing::GoldenForecastConfig());
      bundle->score = study.score_config;
      serialize::ByteWriter writer;
      serialize::EncodeBundle(*bundle, &writer);
      return new std::vector<uint8_t>(writer.TakeBytes());
    }();
    payload_ = *cached;
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

  /// Swaps the body of section `id` for `body`, fixing its size field.
  void ReplaceSectionBody(uint32_t id, const std::vector<uint8_t>& body) {
    const size_t frame = SectionOffset(id);
    ASSERT_NE(frame, std::string::npos) << "section " << id;
    const auto start = payload_.begin() + static_cast<ptrdiff_t>(frame + 16);
    payload_.erase(start, start + static_cast<ptrdiff_t>(
                                      ReadU64At(payload_, frame + 8)));
    payload_.insert(payload_.begin() + static_cast<ptrdiff_t>(frame + 16),
                    body.begin(), body.end());
    WriteU64At(&payload_, frame + 8, body.size());
  }

  /// Appends a section frame and counts it in the section table.
  void AppendSection(uint32_t id, uint32_t version,
                     const std::vector<uint8_t>& body) {
    serialize::ByteWriter frame;
    frame.WriteU32(id);
    frame.WriteU32(version);
    frame.WriteU64(body.size());
    frame.WriteRaw(body.data(), body.size());
    payload_.insert(payload_.end(), frame.bytes().begin(),
                    frame.bytes().end());
    WriteU32At(&payload_, 20, ReadU32At(payload_, 20) + 1);
  }

  /// Re-frames the (possibly patched) payload with a fresh checksum and
  /// loads it as a bundle, returning the load error ("" on success). The
  /// loaded bundle goes to `out` when given.
  std::string LoadPatched(
      std::unique_ptr<serialize::ForecastBundle>* out = nullptr) {
    EXPECT_TRUE(serialize::WriteArtifactFile(Path("patched.hsb"), payload_).ok);
    std::unique_ptr<serialize::ForecastBundle> bundle;
    serialize::Status status =
        serialize::LoadBundle(Path("patched.hsb"), &bundle);
    if (status.ok) {
      EXPECT_NE(bundle, nullptr);
      if (out != nullptr) *out = std::move(bundle);
      return "";
    }
    EXPECT_EQ(bundle, nullptr);
    return status.error;
  }

  std::vector<uint8_t> payload_;
};

TEST_F(SerializeSectionTest, UnpatchedPayloadHasItsThreeSections) {
  for (uint32_t id : {1u, 3u, 4u}) {
    EXPECT_NE(SectionOffset(id), std::string::npos) << "section " << id;
  }
  // Retired sections are never written: normalization stats had no
  // reader, and the flat forest is compiled on decode.
  EXPECT_EQ(SectionOffset(2), std::string::npos);
  EXPECT_EQ(SectionOffset(5), std::string::npos);
  std::unique_ptr<serialize::ForecastBundle> bundle;
  EXPECT_EQ(LoadPatched(&bundle), "");
  ASSERT_NE(bundle, nullptr);
  ASSERT_NE(bundle->flat, nullptr);
  EXPECT_TRUE(*bundle->flat == ml::FlatForest::Compile(*bundle->classifier));
  EXPECT_GT(bundle->flat->num_nodes(), bundle->flat->num_trees())
      << "the fixture's model has no internal nodes";
}

TEST_F(SerializeSectionTest, SkewErrorNamesTheExactSection) {
  // A future version of each section in turn: the error must say which
  // section is unreadable, not just "bad file".
  const struct {
    uint32_t id;
    const char* name;
  } kSections[] = {{1, "score_config"}, {3, "classifier"}, {4, "fingerprints"}};
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

/// A v2 'flat_forest' section body as older binaries wrote it: one
/// single-leaf tree (u32 aggregation, i32 num_features, f64 base_score,
/// u64 node count, 25-byte nodes, u64 tree count, i32 roots). The loader
/// skips the body unread.
std::vector<uint8_t> RetiredFlatSectionBody(int num_features) {
  serialize::ByteWriter body;
  body.WriteU32(2);  // kGbdtSigmoid
  body.WriteI32(num_features);
  body.WriteF64(0.0);
  body.WriteU64(1);
  body.WriteI32(-1);    // feature: leaf
  body.WriteF32(0.0f);  // threshold
  body.WriteU8(0);      // miss_left
  body.WriteI32(0);     // left
  body.WriteI32(0);     // right
  body.WriteF64(0.25);  // leaf value
  body.WriteU64(1);
  body.WriteI32(0);
  return body.TakeBytes();
}

TEST_F(SerializeSectionTest, RetiredFlatSectionIsSkippedAtV2RefusedAtV1) {
  // Bundles written before the flat forest was dropped from the format
  // carry it as section 5. A v2 section must change nothing: the bundle
  // loads and serves the same bits as without it. A v1 section (the
  // quantized layout) stays refused by name.
  const Study& study = SplitStudy();
  const int t = testing::GoldenForecastConfig().t;
  const std::vector<uint8_t> pristine = payload_;
  std::unique_ptr<serialize::ForecastBundle> plain;
  ASSERT_EQ(LoadPatched(&plain), "");
  const std::vector<float> expected =
      ForecastService(std::move(plain)).PredictAtDay(study.features, t);

  AppendSection(5, 2, RetiredFlatSectionBody(1));
  std::unique_ptr<serialize::ForecastBundle> with_flat;
  ASSERT_EQ(LoadPatched(&with_flat), "");
  EXPECT_TRUE(*with_flat->flat ==
              ml::FlatForest::Compile(*with_flat->classifier));
  EXPECT_EQ(ForecastService(std::move(with_flat)).PredictAtDay(study.features,
                                                               t),
            expected);

  payload_ = pristine;
  AppendSection(5, 1, RetiredFlatSectionBody(1));
  std::string error = LoadPatched();
  EXPECT_NE(error.find("'flat_forest'"), std::string::npos) << error;
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
}

/// A v1 'normalization' section body as older binaries wrote it: per-KPI
/// means, then stds, each an f64 vector. The loader skips the body unread.
std::vector<uint8_t> RetiredNormalizationSectionBody() {
  serialize::ByteWriter body;
  body.WriteF64Vector({0.5, -1.25, 3.0});
  body.WriteF64Vector({1.0, 0.75, 2.5});
  return body.TakeBytes();
}

TEST_F(SerializeSectionTest, RetiredNormalizationSectionIsSkippedAtV1Only) {
  // Bundles written before the normalization stats were dropped from the
  // format carry them as section 2. A v1 section must change nothing: the
  // bundle loads and serves the same bits as without it. Any other
  // version is refused by name.
  const Study& study = SplitStudy();
  const int t = testing::GoldenForecastConfig().t;
  const std::vector<uint8_t> pristine = payload_;
  std::unique_ptr<serialize::ForecastBundle> plain;
  ASSERT_EQ(LoadPatched(&plain), "");
  const std::vector<float> expected =
      ForecastService(std::move(plain)).PredictAtDay(study.features, t);

  AppendSection(2, 1, RetiredNormalizationSectionBody());
  std::unique_ptr<serialize::ForecastBundle> with_stats;
  ASSERT_EQ(LoadPatched(&with_stats), "");
  EXPECT_TRUE(*with_stats->flat ==
              ml::FlatForest::Compile(*with_stats->classifier));
  EXPECT_EQ(ForecastService(std::move(with_stats))
                .PredictAtDay(study.features, t),
            expected);

  for (uint32_t version : {0u, 2u}) {
    payload_ = pristine;
    AppendSection(2, version, RetiredNormalizationSectionBody());
    std::string error = LoadPatched();
    EXPECT_NE(error.find("'normalization'"), std::string::npos) << error;
    EXPECT_NE(error.find("version " + std::to_string(version)),
              std::string::npos)
        << error;
  }
}

TEST_F(SerializeSectionTest, UnknownSectionIdIsRejectedByNumber) {
  size_t off = SectionOffset(4);
  ASSERT_NE(off, std::string::npos);
  WriteU32At(&payload_, off, 77);  // an id this binary has never heard of
  std::string error = LoadPatched();
  EXPECT_NE(error.find("section id 77"), std::string::npos) << error;
}

TEST_F(SerializeSectionTest, MissingRequiredSectionIsNamed) {
  // Truncate the section table to just the first (score_config) section:
  // the loader must name a missing required section rather than serve a
  // half-initialized bundle.
  size_t first = SectionOffset(1);
  size_t second = SectionOffset(3);
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  payload_.resize(second);
  WriteU32At(&payload_, 20, 1);  // section count
  std::string error = LoadPatched();
  EXPECT_NE(error.find("missing"), std::string::npos) << error;
  EXPECT_NE(error.find("classifier"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Hostile classifier sections: hand-built classifier bytes spliced into a
// bundle. Each must be refused by LoadBundle with a named reason — never
// reach FlatForest::Compile, which aborts on an empty model and copies a
// shared child once per path to it (a 21-node chain whose nodes send both
// children to the next node compiles to 2^21 - 1 nodes).
// ---------------------------------------------------------------------------

/// One hand-built node: feature < 0 marks a leaf.
struct HandNode {
  int feature;
  int left;
  int right;
};

const std::vector<HandNode> kStump = {{0, 1, 2}, {-1, 0, 0}, {-1, 0, 0}};
/// Nodes 1 and 2 share their children.
const std::vector<HandNode> kSharedChildren = {
    {0, 1, 2}, {0, 3, 4}, {0, 3, 4}, {-1, 0, 0}, {-1, 0, 0}};

/// `nodes` internal nodes each sending both children to the next node,
/// then one leaf.
std::vector<HandNode> DoubledChain(int nodes) {
  std::vector<HandNode> chain;
  for (int i = 0; i + 1 < nodes; ++i) chain.push_back({0, i + 1, i + 1});
  chain.push_back({-1, 0, 0});
  return chain;
}

/// A GBDT payload ('classifier' section body) of `trees` copies of `nodes`
/// over `features` features with one cut each. `declared_nodes` overrides
/// the per-tree node count field, `min_child_hessian` and `lambda_l2` the
/// config's.
std::vector<uint8_t> GbdtBytes(int features, int trees,
                               const std::vector<HandNode>& nodes,
                               uint64_t declared_nodes = ~uint64_t{0},
                               double min_child_hessian = 1e-3,
                               double lambda_l2 = 1.0) {
  serialize::ByteWriter w;
  w.WriteI32(10);    // num_iterations
  w.WriteF64(0.1);   // learning_rate
  w.WriteI32(7);     // num_leaves
  w.WriteI32(8);     // max_depth
  w.WriteI32(16);    // max_bins
  w.WriteF64(lambda_l2);
  w.WriteF64(min_child_hessian);
  w.WriteF64(1.0);   // feature_fraction
  w.WriteF64(1.0);   // bagging_fraction
  w.WriteU64(1);     // seed
  w.WriteI32(features);
  w.WriteF64(0.0);  // base_score
  w.WriteU64(static_cast<uint64_t>(features));
  for (int f = 0; f < features; ++f) {
    w.WriteF32Vector(std::vector<float>{0.5f});
  }
  w.WriteU64(static_cast<uint64_t>(trees));
  for (int t = 0; t < trees; ++t) {
    w.WriteU64(declared_nodes != ~uint64_t{0} ? declared_nodes
                                              : nodes.size());
    for (const HandNode& node : nodes) {
      w.WriteI32(node.feature);
      w.WriteI32(1);  // bin_threshold
      w.WriteI32(node.left);
      w.WriteI32(node.right);
      w.WriteF64(0.125);
    }
  }
  w.WriteF64Vector(std::vector<double>(static_cast<size_t>(features), 0.0));
  w.WriteF64Vector({});  // training_loss
  return w.TakeBytes();
}

void WriteTree(int features, const std::vector<HandNode>& nodes,
               serialize::ByteWriter* w) {
  w->WriteF64(1.0);    // max_features_fraction
  w->WriteBool(false);  // max_features_sqrt
  w->WriteF64(0.0);    // min_weight_fraction
  w->WriteI32(0);      // max_depth
  w->WriteU64(1);      // seed
  w->WriteI32(features);
  w->WriteF64(1.0);  // total_weight
  w->WriteI32(1);    // depth
  w->WriteU64(nodes.size());
  for (const HandNode& node : nodes) {
    w->WriteI32(node.feature);
    w->WriteF32(0.5f);  // threshold
    w->WriteI32(node.left);
    w->WriteI32(node.right);
    w->WriteF32(0.25f);  // prob
  }
  w->WriteF64Vector(std::vector<double>(static_cast<size_t>(features), 0.0));
}

std::vector<uint8_t> TreeBytes(int features,
                               const std::vector<HandNode>& nodes) {
  serialize::ByteWriter w;
  WriteTree(features, nodes, &w);
  return w.TakeBytes();
}

/// A random-forest payload of `trees` copies of `nodes`; each tree claims
/// `tree_features` features, the forest `features`.
std::vector<uint8_t> ForestBytes(int features, int tree_features, int trees,
                                 const std::vector<HandNode>& nodes) {
  serialize::ByteWriter w;
  w.WriteI32(trees > 0 ? trees : 1);  // num_trees config
  w.WriteF64(0.0);                    // min_weight_fraction
  w.WriteI32(0);                      // max_depth
  w.WriteBool(true);                  // bootstrap
  w.WriteU64(1);                      // seed
  w.WriteI32(features);
  w.WriteU64(static_cast<uint64_t>(trees));
  for (int t = 0; t < trees; ++t) WriteTree(tree_features, nodes, &w);
  return w.TakeBytes();
}

TEST_F(SerializeSectionTest, HostileClassifierSectionsAreRefusedByName) {
  const int dim = 8;
  struct Case {
    ModelKind model;
    const char* what;
    std::vector<uint8_t> classifier;
    const char* error;  ///< nullptr: a well-formed control that loads
  };
  std::vector<Case> cases = {
      {ModelKind::kGbdt, "gbdt stump", GbdtBytes(dim, 2, kStump), nullptr},
      {ModelKind::kGbdt, "gbdt without trees", GbdtBytes(dim, 0, kStump),
       "gbdt has no trees"},
      {ModelKind::kGbdt, "gbdt tree without nodes", GbdtBytes(dim, 1, {}),
       "gbdt node count out of range"},
      {ModelKind::kGbdt, "gbdt node count beyond the payload",
       GbdtBytes(dim, 1, kStump, uint64_t{1} << 27),
       "gbdt node count out of range"},
      {ModelKind::kGbdt, "gbdt doubled chain",
       GbdtBytes(dim, 1, DoubledChain(21)),
       "gbdt node graph has a shared child"},
      {ModelKind::kGbdt, "gbdt shared children",
       GbdtBytes(dim, 1, kSharedChildren),
       "gbdt node graph has a shared child"},
      {ModelKind::kGbdt, "gbdt zero min_child_hessian",
       GbdtBytes(dim, 2, kStump, ~uint64_t{0}, 0.0),
       "gbdt config out of range"},
      {ModelKind::kGbdt, "gbdt NaN lambda_l2",
       GbdtBytes(dim, 2, kStump, ~uint64_t{0}, 1e-3, std::nan("")),
       "gbdt config out of range"},
      {ModelKind::kTree, "tree stump", TreeBytes(dim, kStump), nullptr},
      {ModelKind::kTree, "tree without nodes", TreeBytes(dim, {}),
       "tree has no nodes"},
      {ModelKind::kTree, "tree doubled chain",
       TreeBytes(dim, DoubledChain(21)), "tree node graph has a shared child"},
      {ModelKind::kTree, "tree shared children",
       TreeBytes(dim, kSharedChildren), "tree node graph has a shared child"},
  };
  for (ModelKind forest : {ModelKind::kRfRaw, ModelKind::kRfF1,
                           ModelKind::kRfF2}) {
    cases.push_back({forest, "forest of stumps",
                     ForestBytes(dim, dim, 3, kStump), nullptr});
    cases.push_back({forest, "forest without trees",
                     ForestBytes(dim, dim, 0, kStump), "forest has no trees"});
    cases.push_back({forest, "forest tree without nodes",
                     ForestBytes(dim, dim, 2, {}), "tree has no nodes"});
    cases.push_back({forest, "forest doubled chain",
                     ForestBytes(dim, dim, 2, DoubledChain(21)),
                     "tree node graph has a shared child"});
    cases.push_back({forest, "forest shared children",
                     ForestBytes(dim, dim, 2, kSharedChildren),
                     "tree node graph has a shared child"});
    cases.push_back({forest, "forest tree wider than the forest",
                     ForestBytes(dim, dim + 1, 2, kStump),
                     "forest tree feature count does not match the forest"});
  }
  const std::vector<uint8_t> pristine = payload_;
  for (const Case& c : cases) {
    payload_ = pristine;
    WriteU32At(&payload_, 0, static_cast<uint32_t>(c.model));
    ReplaceSectionBody(3, c.classifier);
    std::unique_ptr<serialize::ForecastBundle> bundle;
    std::string error = LoadPatched(&bundle);
    const std::string label =
        std::string(ModelName(c.model)) + " / " + c.what;
    if (c.error == nullptr) {
      ASSERT_EQ(error, "") << label;
      ASSERT_NE(bundle->flat, nullptr) << label;
      EXPECT_TRUE(*bundle->flat ==
                  ml::FlatForest::Compile(*bundle->classifier))
          << label;
      continue;
    }
    EXPECT_NE(error.find(c.error), std::string::npos)
        << label << ": " << error;
  }
}

}  // namespace
}  // namespace hotspot
