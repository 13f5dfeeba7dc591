#ifndef HOTSPOT_TESTS_SERIALIZE_GOLDEN_H_
#define HOTSPOT_TESTS_SERIALIZE_GOLDEN_H_

/// Shared definition of the golden serving fixture: the generator
/// (make_serialize_golden) and the golden-file test must build the exact
/// same study and bundle, so both include this header. Predictions are
/// stored as hex floats ("%a"), which round-trip through text bit for bit.
///
/// It also defines the golden GBDT fit shapes: hostile datasets (partial,
/// exact and multi-tile feature counts; NaN, +-Inf, signed-zero, constant
/// and 4-valued columns; planted exact copies and near-copy twins) fitted
/// under varied bins, subsampling and depth.
/// Each fit is pinned by two CRC-64 digests, so any change to the trained
/// bits shows up without checking in the models themselves. The golden
/// Tree and RandomForest fit shapes are pinned the same way.
///
/// Last, it defines the golden network shapes: generator configs whose
/// synthetic network and built study are pinned the same way, so the
/// generator and the study pipeline may be rewritten for speed but not
/// change a bit of what they produce.

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/forecaster.h"
#include "core/study.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "serialize/binary_format.h"
#include "serialize/bundle.h"
#include "serialize/model_io.h"
#include "simnet/generator.h"
#include "util/rng.h"

namespace hotspot::testing {

inline constexpr char kGoldenBundleFile[] = "golden_bundle.hsb";
inline constexpr char kGoldenPredictionsFile[] = "golden_predictions.txt";
inline constexpr char kGoldenGbdtFitsFile[] = "golden_gbdt_fits.txt";
inline constexpr char kGoldenTreeFitsFile[] = "golden_tree_fits.txt";
inline constexpr char kGoldenNetworksFile[] = "golden_networks.txt";

inline simnet::GeneratorConfig GoldenNetworkConfig() {
  simnet::GeneratorConfig config;
  config.topology.target_sectors = 24;
  config.topology.num_cities = 1;
  config.weeks = 9;
  config.seed = 20260805;
  return config;
}

inline ForecastConfig GoldenForecastConfig() {
  ForecastConfig config;
  config.model = ModelKind::kGbdt;
  config.t = 55;
  config.h = 1;
  config.w = 3;
  config.seed = 17;
  config.gbdt.num_iterations = 10;
  config.gbdt.num_leaves = 7;
  config.gbdt.max_bins = 16;
  return config;
}

inline Study BuildGoldenStudy() {
  return BuildStudy(StudyInput(GoldenNetworkConfig()), StudyOptions{});
}

/// The golden bundle: the golden study's GBDT at the golden config, with
/// the study's score config.
inline std::unique_ptr<serialize::ForecastBundle> BuildGoldenBundle(
    const Study& study) {
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(GoldenForecastConfig());
  bundle->score = study.score_config;
  return bundle;
}

inline bool WriteGoldenPredictions(const std::string& path,
                                   const std::vector<float>& predictions) {
  std::ofstream out(path);
  if (!out) return false;
  char buffer[64];
  for (float value : predictions) {
    std::snprintf(buffer, sizeof(buffer), "%a", static_cast<double>(value));
    out << buffer << "\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

inline bool ReadGoldenPredictions(const std::string& path,
                                  std::vector<float>* predictions) {
  std::ifstream in(path);
  if (!in) return false;
  predictions->clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    char* end = nullptr;
    double value = std::strtod(line.c_str(), &end);
    if (end == line.c_str()) return false;
    predictions->push_back(static_cast<float>(value));
  }
  return !predictions->empty();
}

/// A column of a golden fit's dataset overwritten, once every column is
/// drawn, from `source`'s: an exact copy, or a twin that equals it under
/// float comparison in every row but not bit for bit.
struct PlantedColumn {
  enum class Kind {
    kCopy,
    kSignedZeroTwin,  ///< every zero's sign flipped
    kNanPayloadTwin,  ///< every NaN given another payload
  };
  int column;
  int source;
  Kind kind = Kind::kCopy;
};

/// One golden GBDT fit: an n x d hostile dataset and the config to fit.
struct GbdtFitShape {
  const char* name;
  int rows;
  int features;
  ml::GbdtConfig config;
  /// Applied in order, so a column may copy an earlier planted one.
  std::vector<PlantedColumn> planted = {};
};

/// Columns planted in a dataset at least 100 wide (tiles [0, 32), [32, 64),
/// [64, 96), [96, d)): a copy of every column kind, inside its original's
/// tile and across tiles, below and above its original's index, a copy of
/// a constant (never-splittable) column, a copy of a copy, and twins.
inline std::vector<PlantedColumn> PlantedCopies(int features) {
  using Kind = PlantedColumn::Kind;
  const int half = features / 2;  // label columns, see MakeFitData
  const int last = features - 1;
  return {
      {20, 0},                          // Gaussian, same tile
      {half, 0},                        // Gaussian, a label column
      {last, 20},                       // copy of a copy, a label column
      {40, 1},                          // NaN-holed, across tiles
      {30, 2},                          // +-Inf, same tile
      {26, 58},                         // +-Inf, below its original
      {70, 3},                          // constant, across tiles
      {45, 36},                         // 4-valued, same tile
      {97, 5},                          // signed zeros, across tiles
      {62, 54},                         // integers, same tile
      {88, 23},                         // {-Inf, +Inf, NaN}, across tiles
      {29, 5, Kind::kSignedZeroTwin},   // same tile
      {77, 13, Kind::kSignedZeroTwin},  // across tiles
      {60, 1, Kind::kNanPayloadTwin},   // across tiles
      {31, 9, Kind::kNanPayloadTwin},   // same tile
  };
}

inline std::vector<GbdtFitShape> GoldenGbdtFitShapes() {
  auto config = [](int iterations, int leaves, int max_depth, int max_bins,
                   double feature_fraction, double bagging_fraction) {
    ml::GbdtConfig c;
    c.num_iterations = iterations;
    c.num_leaves = leaves;
    c.max_depth = max_depth;
    c.max_bins = max_bins;
    c.feature_fraction = feature_fraction;
    c.bagging_fraction = bagging_fraction;
    c.seed = 29;
    return c;
  };
  return {
      {"d1_bins2", 400, 1, config(6, 7, 8, 2, 1.0, 1.0)},
      {"d31_bins16_ff07", 500, 31, config(10, 15, 8, 16, 0.7, 1.0)},
      {"d32_bins255_depth0", 600, 32, config(8, 31, 0, 255, 1.0, 1.0)},
      {"d33_bins64_bag08", 500, 33, config(10, 15, 8, 64, 1.0, 0.8)},
      {"d70_bins32_ff05_bag08_depth3", 700, 70,
       config(10, 15, 3, 32, 0.5, 0.8)},
      {"d300_bins64_ff07_depth0", 400, 300, config(6, 31, 0, 64, 0.7, 1.0)},
      {"d2160_bins32", 300, 2160, config(4, 15, 8, 32, 1.0, 1.0)},
      {"d100_bins32_copies", 600, 100, config(10, 15, 8, 32, 1.0, 1.0),
       PlantedCopies(100)},
      {"d130_bins16_ff05_bag08_copies", 700, 130,
       config(12, 15, 6, 16, 0.5, 0.8), PlantedCopies(130)},
  };
}

/// An n x d hostile dataset. Column kinds cycle with the feature index:
/// Gaussian, Gaussian with 20% NaN, uniform with 5% -Inf and 5% +Inf,
/// constant, 4-valued, signed zeros among Gaussians, integers 0..40 and
/// {-Inf, +Inf, NaN} only. The planted columns then overwrite theirs.
/// Labels follow a noisy logit of columns spread over the whole width;
/// weights are uneven.
inline ml::Dataset MakeFitData(int n, int d,
                               const std::vector<PlantedColumn>& planted) {
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(static_cast<uint64_t>(n) * 7919u + static_cast<uint64_t>(d));
  ml::Dataset data;
  data.features = Matrix<float>(n, d);
  for (int i = 0; i < n; ++i) {
    for (int f = 0; f < d; ++f) {
      float value = 0.0f;
      switch (f % 8) {
        case 0:
          value = static_cast<float>(rng.Gaussian());
          break;
        case 1:
          value = rng.Bernoulli(0.2) ? MissingValue()
                                     : static_cast<float>(rng.Gaussian());
          break;
        case 2: {
          double u = rng.UniformDouble();
          value = u < 0.05   ? -inf
                  : u < 0.1 ? inf
                            : static_cast<float>(rng.Uniform(-3.0, 3.0));
          break;
        }
        case 3:
          value = 3.0f;
          break;
        case 4:
          value = static_cast<float>(rng.UniformInt(0, 3)) - 1.0f;
          break;
        case 5:
          value = rng.Bernoulli(0.3)
                      ? (rng.Bernoulli(0.5) ? -0.0f : 0.0f)
                      : static_cast<float>(rng.Gaussian());
          break;
        case 6:
          value = static_cast<float>(rng.UniformInt(0, 40));
          break;
        default: {
          int64_t pick = rng.UniformInt(0, 2);
          value = pick == 0 ? -inf : pick == 1 ? inf : MissingValue();
          break;
        }
      }
      data.features(i, f) = value;
    }
  }
  for (const PlantedColumn& column : planted) {
    for (int i = 0; i < n; ++i) {
      float value = data.features(i, column.source);
      if (column.kind == PlantedColumn::Kind::kSignedZeroTwin &&
          value == 0.0f) {
        value = -value;
      } else if (column.kind == PlantedColumn::Kind::kNanPayloadTwin &&
                 std::isnan(value)) {
        value = std::bit_cast<float>(std::bit_cast<uint32_t>(value) ^ 1u);
      }
      data.features(i, column.column) = value;
    }
  }
  auto term = [&](int i, int f) {
    float value = data.features(i, f);
    if (std::isnan(value)) return 0.0;
    return std::isinf(value) ? (value > 0 ? 1.0 : -1.0)
                             : static_cast<double>(value);
  };
  data.labels.resize(static_cast<size_t>(n));
  data.weights.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double logit = 0.8 * term(i, 0) + 0.6 * term(i, d / 2) -
                   0.7 * term(i, d - 1) + 0.3 * term(i, (3 * d) / 4) +
                   rng.Gaussian(0.0, 0.5);
    data.labels[static_cast<size_t>(i)] = logit > 0.3 ? 1.0f : 0.0f;
    data.weights[static_cast<size_t>(i)] = rng.Uniform(0.5, 2.0);
  }
  return data;
}

/// The GBDT shape's dataset.
inline ml::Dataset MakeGbdtFitData(const GbdtFitShape& shape) {
  return MakeFitData(shape.rows, shape.features, shape.planted);
}

/// "<name> <crc64 of first's bytes> <crc64 of second's bytes>", the line
/// format of every golden digest file.
inline std::string DigestLine(const char* name,
                              const serialize::ByteWriter& first,
                              const serialize::ByteWriter& second) {
  char line[160];
  std::snprintf(
      line, sizeof(line), "%s %016" PRIx64 " %016" PRIx64, name,
      serialize::Crc64(first.bytes().data(), first.bytes().size()),
      serialize::Crc64(second.bytes().data(), second.bytes().size()));
  return line;
}

/// "<name> <crc64 of the EncodeGbdt bytes> <crc64 of training_loss()>".
inline std::string GbdtFitDigestLine(const GbdtFitShape& shape) {
  ml::Gbdt model(shape.config);
  model.Fit(MakeGbdtFitData(shape));
  serialize::ByteWriter model_bytes;
  serialize::ModelAccess::EncodeGbdt(model, &model_bytes);
  serialize::ByteWriter loss_bytes;
  loss_bytes.WriteF64Vector(model.training_loss());
  return DigestLine(shape.name, model_bytes, loss_bytes);
}

/// One golden Tree or RandomForest fit: an n x d dataset of MakeFitData's
/// column kinds and the model's config.
struct TreeFitShape {
  const char* name;
  int rows;
  int features;
  std::variant<ml::TreeConfig, ml::ForestConfig> config;
  std::vector<PlantedColumn> planted = {};
};

/// Trees with the paper's 80% of the features per split and with √d, at
/// d = 1 and with exact copies and ±0 / NaN-payload twins (which tie on
/// gain with their source); forests with and without the bootstrap. Every
/// dataset holds ties (4-valued and integer columns), NaN, ±Inf, ±0 and
/// constant columns.
inline std::vector<TreeFitShape> GoldenTreeFitShapes() {
  auto tree = [](double min_weight_fraction, int max_depth, bool sqrt) {
    ml::TreeConfig c;
    c.max_features_sqrt = sqrt;
    c.min_weight_fraction = min_weight_fraction;
    c.max_depth = max_depth;
    c.seed = 31;
    return c;
  };
  auto forest = [](int trees, double min_weight_fraction, int max_depth,
                   bool bootstrap) {
    ml::ForestConfig c;
    c.num_trees = trees;
    c.min_weight_fraction = min_weight_fraction;
    c.max_depth = max_depth;
    c.bootstrap = bootstrap;
    c.seed = 37;
    return c;
  };
  using Kind = PlantedColumn::Kind;
  return {
      {"tree_d1", 300, 1, tree(0.02, 0, false)},
      {"tree_d24_ff08", 500, 24, tree(0.005, 0, false)},
      {"tree_d40_sqrt_depth6", 600, 40, tree(0.002, 6, true)},
      {"tree_d16_twins", 400, 16, tree(0.002, 0, false),
       {{12, 4}, {13, 5, Kind::kSignedZeroTwin},
        {14, 1, Kind::kNanPayloadTwin}}},
      {"forest_d1_boot", 300, 1, forest(6, 0.002, 0, true)},
      {"forest_d24_boot", 500, 24, forest(8, 0.0005, 0, true)},
      {"forest_d24_noboot", 500, 24, forest(8, 0.0005, 0, false)},
      {"forest_d40_noboot_depth8", 400, 40, forest(6, 0.0002, 8, false)},
  };
}

/// "<name> <crc64 of the EncodeTree or EncodeForest bytes> <crc64 of
/// PredictProba over the training rows>".
inline std::string TreeFitDigestLine(const TreeFitShape& shape) {
  const ml::Dataset data =
      MakeFitData(shape.rows, shape.features, shape.planted);
  serialize::ByteWriter model_bytes;
  std::unique_ptr<ml::BinaryClassifier> model;
  if (const auto* config = std::get_if<ml::TreeConfig>(&shape.config)) {
    auto tree = std::make_unique<ml::DecisionTree>(*config);
    tree->Fit(data);
    serialize::ModelAccess::EncodeTree(*tree, &model_bytes);
    model = std::move(tree);
  } else {
    auto forest = std::make_unique<ml::RandomForest>(
        std::get<ml::ForestConfig>(shape.config));
    forest->Fit(data);
    serialize::ModelAccess::EncodeForest(*forest, &model_bytes);
    model = std::move(forest);
  }
  std::vector<double> scores(static_cast<size_t>(data.num_instances()));
  for (int i = 0; i < data.num_instances(); ++i) {
    scores[static_cast<size_t>(i)] =
        model->PredictProba(data.features.Row(i));
  }
  serialize::ByteWriter score_bytes;
  score_bytes.WriteF64Vector(scores);
  return DigestLine(shape.name, model_bytes, score_bytes);
}

/// One golden network: a generator config whose network and study are
/// pinned by digest.
struct NetworkShape {
  const char* name;
  simnet::GeneratorConfig config;
};

/// The golden network, a wider one, a two-city deployment, and the edges
/// where a stream draws nothing: every cell lost at level 1 (so every
/// sector is filtered out), no injection at all, and commercial sectors
/// open every Sunday.
inline std::vector<NetworkShape> GoldenNetworkShapes() {
  auto sized = [](int sectors, int cities, int weeks, uint64_t seed) {
    simnet::GeneratorConfig config;
    config.topology.target_sectors = sectors;
    config.topology.num_cities = cities;
    config.weeks = weeks;
    config.seed = seed;
    return config;
  };
  simnet::GeneratorConfig all_cells_lost = GoldenNetworkConfig();
  all_cells_lost.missing.cell_rate = 1.0;
  simnet::GeneratorConfig no_missing = GoldenNetworkConfig();
  no_missing.inject_missing = false;
  // The golden network has no commercial sector, so this one is wider.
  simnet::GeneratorConfig sundays_open = sized(60, 5, 9, 7);
  sundays_open.load.sunday_open_prob = 1.0;
  return {
      {"golden_24x9w", GoldenNetworkConfig()},
      {"s60_9w_seed7", sized(60, 5, 9, 7)},
      {"s36_2cities_5w", sized(36, 2, 5, 3)},
      {"golden_cell_rate1", all_cells_lost},
      {"golden_no_missing", no_missing},
      {"s60_9w_seed7_sundays_open", sundays_open},
  };
}

inline void WriteDigestTensor(const Tensor3<float>& tensor,
                              serialize::ByteWriter* out) {
  out->WriteI32(tensor.dim0());
  out->WriteI32(tensor.dim1());
  out->WriteI32(tensor.dim2());
  out->WriteF32Vector(tensor.data());
}

inline void WriteDigestMatrix(const Matrix<float>& matrix,
                              serialize::ByteWriter* out) {
  out->WriteI32(matrix.rows());
  out->WriteI32(matrix.cols());
  out->WriteF32Vector(matrix.data());
}

/// "<name> <crc64 of the network> <crc64 of the study>". The network
/// digest covers GenerateNetwork's KPIs, its four ground-truth matrices
/// and its missing-value stats; the study digest covers BuildStudy's
/// filtered KPIs, hourly, daily and weekly scores, daily labels and
/// feature tensor.
inline std::string NetworkDigestLine(const NetworkShape& shape) {
  simnet::SyntheticNetwork network = simnet::GenerateNetwork(shape.config);
  serialize::ByteWriter network_bytes;
  WriteDigestTensor(network.kpis, &network_bytes);
  WriteDigestMatrix(network.true_load, &network_bytes);
  WriteDigestMatrix(network.true_failure, &network_bytes);
  WriteDigestMatrix(network.true_degradation, &network_bytes);
  WriteDigestMatrix(network.true_precursor, &network_bytes);
  network_bytes.WriteI64(network.missing_stats.missing_cells);
  network_bytes.WriteI64(network.missing_stats.total_cells);
  network_bytes.WriteI32(network.missing_stats.dead_sectors);

  Study study = BuildStudy(std::move(network));
  serialize::ByteWriter study_bytes;
  WriteDigestTensor(study.network.kpis, &study_bytes);
  WriteDigestMatrix(study.scores.hourly, &study_bytes);
  WriteDigestMatrix(study.scores.daily, &study_bytes);
  WriteDigestMatrix(study.scores.weekly, &study_bytes);
  WriteDigestMatrix(study.daily_labels, &study_bytes);
  WriteDigestTensor(study.features.tensor(), &study_bytes);
  return DigestLine(shape.name, network_bytes, study_bytes);
}

}  // namespace hotspot::testing

#endif  // HOTSPOT_TESTS_SERIALIZE_GOLDEN_H_
