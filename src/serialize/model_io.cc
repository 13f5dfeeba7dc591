#include "serialize/model_io.h"

#include <cmath>
#include <utility>

#include "util/logging.h"

namespace hotspot::serialize {

namespace {

/// Upper bounds on decoded structure sizes. These are sanity gates against
/// corrupted or adversarial counts, far above anything the library
/// produces; structural reads are additionally bounded by the payload size
/// inside ByteReader.
constexpr uint64_t kMaxNodes = 1u << 28;
constexpr uint64_t kMaxTrees = 1u << 20;
constexpr int kMaxInputDim = 1 << 24;
constexpr int kMaxEncoderLayers = 40;

void EncodeGbdtConfig(const ml::GbdtConfig& config, ByteWriter* writer) {
  writer->WriteI32(config.num_iterations);
  writer->WriteF64(config.learning_rate);
  writer->WriteI32(config.num_leaves);
  writer->WriteI32(config.max_depth);
  writer->WriteI32(config.max_bins);
  writer->WriteF64(config.lambda_l2);
  writer->WriteF64(config.min_child_hessian);
  writer->WriteF64(config.feature_fraction);
  writer->WriteF64(config.bagging_fraction);
  writer->WriteU64(config.seed);
}

bool DecodeGbdtConfig(ByteReader* reader, ml::GbdtConfig* config) {
  config->num_iterations = reader->ReadI32();
  config->learning_rate = reader->ReadF64();
  config->num_leaves = reader->ReadI32();
  config->max_depth = reader->ReadI32();
  config->max_bins = reader->ReadI32();
  config->lambda_l2 = reader->ReadF64();
  config->min_child_hessian = reader->ReadF64();
  config->feature_fraction = reader->ReadF64();
  config->bagging_fraction = reader->ReadF64();
  config->seed = reader->ReadU64();
  // Mirror the Gbdt constructor's CHECKs: a corrupt config must fail the
  // load, not abort the process.
  if (!reader->ok()) return false;
  if (config->num_iterations <= 0 || !(config->learning_rate > 0.0) ||
      config->num_leaves < 2 ||
      !(config->feature_fraction > 0.0 && config->feature_fraction <= 1.0) ||
      !(config->bagging_fraction > 0.0 && config->bagging_fraction <= 1.0)) {
    reader->Fail("gbdt config out of range");
    return false;
  }
  return true;
}

void EncodeTreeConfig(const ml::TreeConfig& config, ByteWriter* writer) {
  writer->WriteF64(config.max_features_fraction);
  writer->WriteBool(config.max_features_sqrt);
  writer->WriteF64(config.min_weight_fraction);
  writer->WriteI32(config.max_depth);
  writer->WriteU64(config.seed);
}

bool DecodeTreeConfig(ByteReader* reader, ml::TreeConfig* config) {
  config->max_features_fraction = reader->ReadF64();
  config->max_features_sqrt = reader->ReadBool();
  config->min_weight_fraction = reader->ReadF64();
  config->max_depth = reader->ReadI32();
  config->seed = reader->ReadU64();
  if (!reader->ok()) return false;
  if (!(config->max_features_fraction > 0.0 &&
        config->max_features_fraction <= 1.0) ||
      !(config->min_weight_fraction >= 0.0)) {
    reader->Fail("tree config out of range");
    return false;
  }
  return true;
}

void EncodeForestConfig(const ml::ForestConfig& config, ByteWriter* writer) {
  writer->WriteI32(config.num_trees);
  writer->WriteF64(config.min_weight_fraction);
  writer->WriteI32(config.max_depth);
  writer->WriteBool(config.bootstrap);
  writer->WriteU64(config.seed);
}

bool DecodeForestConfig(ByteReader* reader, ml::ForestConfig* config) {
  config->num_trees = reader->ReadI32();
  config->min_weight_fraction = reader->ReadF64();
  config->max_depth = reader->ReadI32();
  config->bootstrap = reader->ReadBool();
  config->seed = reader->ReadU64();
  if (!reader->ok()) return false;
  if (config->num_trees <= 0) {
    reader->Fail("forest config out of range");
    return false;
  }
  return true;
}

void EncodeImputerConfig(const nn::ImputerConfig& config,
                         ByteWriter* writer) {
  writer->WriteI32(config.slice_hours);
  writer->WriteI32(config.encoder_layers);
  writer->WriteI32(config.batch_size);
  writer->WriteI32(config.epochs);
  writer->WriteF64(config.learning_rate);
  writer->WriteF64(config.rms_decay);
  writer->WriteF64(config.corruption_fraction);
  writer->WriteU64(config.seed);
}

bool DecodeImputerConfig(ByteReader* reader, nn::ImputerConfig* config) {
  config->slice_hours = reader->ReadI32();
  config->encoder_layers = reader->ReadI32();
  config->batch_size = reader->ReadI32();
  config->epochs = reader->ReadI32();
  config->learning_rate = reader->ReadF64();
  config->rms_decay = reader->ReadF64();
  config->corruption_fraction = reader->ReadF64();
  config->seed = reader->ReadU64();
  if (!reader->ok()) return false;
  if (config->slice_hours <= 0 || config->batch_size <= 0 ||
      config->epochs <= 0 ||
      !(config->corruption_fraction >= 0.0 &&
        config->corruption_fraction <= 1.0)) {
    reader->Fail("imputer config out of range");
    return false;
  }
  return true;
}

}  // namespace

NormalizationStats NormalizationFromKpis(const Tensor3<float>& kpis) {
  NormalizationStats stats;
  nn::ComputeKpiNormalization(kpis, &stats.means, &stats.stds);
  return stats;
}

void ModelAccess::EncodeGbdt(const ml::Gbdt& model, ByteWriter* writer) {
  EncodeGbdtConfig(model.config_, writer);
  writer->WriteI32(model.num_features_);
  writer->WriteF64(model.base_score_);
  // Binner thresholds, one vector per feature.
  writer->WriteU64(model.binner_.thresholds_.size());
  for (const std::vector<float>& cuts : model.binner_.thresholds_) {
    writer->WriteF32Vector(cuts);
  }
  writer->WriteU64(model.trees_.size());
  for (const ml::Gbdt::Tree& tree : model.trees_) {
    writer->WriteU64(tree.nodes.size());
    for (const ml::Gbdt::Node& node : tree.nodes) {
      writer->WriteI32(node.feature);
      writer->WriteI32(node.bin_threshold);
      writer->WriteI32(node.left);
      writer->WriteI32(node.right);
      writer->WriteF64(node.value);
    }
  }
  writer->WriteF64Vector(model.gain_importances_);
  writer->WriteF64Vector(model.training_loss_);
}

std::unique_ptr<ml::Gbdt> ModelAccess::DecodeGbdt(ByteReader* reader) {
  ml::GbdtConfig config;
  if (!DecodeGbdtConfig(reader, &config)) return nullptr;
  auto model = std::make_unique<ml::Gbdt>(config);
  model->num_features_ = reader->ReadI32();
  model->base_score_ = reader->ReadF64();
  if (!reader->ok() || model->num_features_ < 0) {
    reader->Fail("gbdt feature count out of range");
    return nullptr;
  }

  uint64_t binner_features = reader->ReadU64();
  if (!reader->ok() ||
      binner_features != static_cast<uint64_t>(model->num_features_)) {
    reader->Fail("gbdt binner does not match feature count");
    return nullptr;
  }
  model->binner_.thresholds_.resize(static_cast<size_t>(binner_features));
  for (std::vector<float>& cuts : model->binner_.thresholds_) {
    cuts = reader->ReadF32Vector();
  }

  uint64_t num_trees = reader->ReadU64();
  if (!reader->ok() || num_trees > kMaxTrees) {
    reader->Fail("gbdt tree count out of range");
    return nullptr;
  }
  model->trees_.resize(static_cast<size_t>(num_trees));
  for (ml::Gbdt::Tree& tree : model->trees_) {
    uint64_t num_nodes = reader->ReadU64();
    if (!reader->ok() || num_nodes == 0 || num_nodes > kMaxNodes) {
      reader->Fail("gbdt node count out of range");
      return nullptr;
    }
    tree.nodes.resize(static_cast<size_t>(num_nodes));
    for (size_t index = 0; index < tree.nodes.size(); ++index) {
      ml::Gbdt::Node& node = tree.nodes[index];
      node.feature = reader->ReadI32();
      node.bin_threshold = reader->ReadI32();
      node.left = reader->ReadI32();
      node.right = reader->ReadI32();
      node.value = reader->ReadF64();
      if (!reader->ok()) return nullptr;
      if (node.feature >= 0) {
        // Internal node: feature in range, children strictly forward (the
        // builders append children after their parent), so traversal
        // terminates and never indexes out of bounds.
        const int size = static_cast<int>(num_nodes);
        const int self = static_cast<int>(index);
        if (node.feature >= model->num_features_ || node.left <= self ||
            node.left >= size || node.right <= self || node.right >= size) {
          reader->Fail("gbdt node graph invalid");
          return nullptr;
        }
      }
    }
  }
  model->gain_importances_ = reader->ReadF64Vector();
  model->training_loss_ = reader->ReadF64Vector();
  if (!reader->ok()) return nullptr;
  if (model->gain_importances_.size() !=
      static_cast<size_t>(model->num_features_)) {
    reader->Fail("gbdt importance size mismatch");
    return nullptr;
  }
  return model;
}

void ModelAccess::EncodeTree(const ml::DecisionTree& model,
                             ByteWriter* writer) {
  EncodeTreeConfig(model.config_, writer);
  writer->WriteI32(model.num_features_);
  writer->WriteF64(model.total_weight_);
  writer->WriteI32(model.depth_);
  writer->WriteU64(model.nodes_.size());
  for (const ml::DecisionTree::Node& node : model.nodes_) {
    writer->WriteI32(node.feature);
    writer->WriteF32(node.threshold);
    writer->WriteI32(node.left);
    writer->WriteI32(node.right);
    writer->WriteF32(node.prob);
  }
  writer->WriteF64Vector(model.importances_);
}

std::unique_ptr<ml::DecisionTree> ModelAccess::DecodeTree(
    ByteReader* reader) {
  ml::TreeConfig config;
  if (!DecodeTreeConfig(reader, &config)) return nullptr;
  auto model = std::make_unique<ml::DecisionTree>(config);
  model->num_features_ = reader->ReadI32();
  model->total_weight_ = reader->ReadF64();
  model->depth_ = reader->ReadI32();
  if (!reader->ok() || model->num_features_ < 0) {
    reader->Fail("tree feature count out of range");
    return nullptr;
  }
  uint64_t num_nodes = reader->ReadU64();
  if (!reader->ok() || num_nodes > kMaxNodes) {
    reader->Fail("tree node count out of range");
    return nullptr;
  }
  model->nodes_.resize(static_cast<size_t>(num_nodes));
  for (size_t index = 0; index < model->nodes_.size(); ++index) {
    ml::DecisionTree::Node& node = model->nodes_[index];
    node.feature = reader->ReadI32();
    node.threshold = reader->ReadF32();
    node.left = reader->ReadI32();
    node.right = reader->ReadI32();
    node.prob = reader->ReadF32();
    if (!reader->ok()) return nullptr;
    if (node.feature >= 0) {
      const int size = static_cast<int>(num_nodes);
      const int self = static_cast<int>(index);
      if (node.feature >= model->num_features_ || node.left <= self ||
          node.left >= size || node.right <= self || node.right >= size) {
        reader->Fail("tree node graph invalid");
        return nullptr;
      }
    }
  }
  model->importances_ = reader->ReadF64Vector();
  if (!reader->ok()) return nullptr;
  return model;
}

void ModelAccess::EncodeForest(const ml::RandomForest& model,
                               ByteWriter* writer) {
  EncodeForestConfig(model.config_, writer);
  writer->WriteI32(model.num_features_);
  writer->WriteU64(model.trees_.size());
  for (const auto& tree : model.trees_) {
    EncodeTree(*tree, writer);
  }
}

std::unique_ptr<ml::RandomForest> ModelAccess::DecodeForest(
    ByteReader* reader) {
  ml::ForestConfig config;
  if (!DecodeForestConfig(reader, &config)) return nullptr;
  auto model = std::make_unique<ml::RandomForest>(config);
  model->num_features_ = reader->ReadI32();
  uint64_t num_trees = reader->ReadU64();
  if (!reader->ok() || num_trees > kMaxTrees) {
    reader->Fail("forest tree count out of range");
    return nullptr;
  }
  model->trees_.reserve(static_cast<size_t>(num_trees));
  for (uint64_t t = 0; t < num_trees; ++t) {
    std::unique_ptr<ml::DecisionTree> tree = DecodeTree(reader);
    if (tree == nullptr) return nullptr;
    model->trees_.push_back(std::move(tree));
  }
  return model;
}

void ModelAccess::EncodeFlatForest(const ml::FlatForest& forest,
                                   ByteWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(forest.agg_));
  writer->WriteI32(forest.num_features_);
  writer->WriteF64(forest.base_score_);
  writer->WriteU64(forest.feature_.size());
  for (size_t i = 0; i < forest.feature_.size(); ++i) {
    writer->WriteI32(forest.feature_[i]);
    writer->WriteF32(forest.threshold_[i]);
    writer->WriteBool(forest.miss_left_[i] != 0);
    writer->WriteI32(forest.left_[i]);
    writer->WriteI32(forest.right_[i]);
    writer->WriteF64(forest.leaf_value_[i]);
  }
  writer->WriteU64(forest.roots_.size());
  for (int32_t root : forest.roots_) writer->WriteI32(root);
}

std::unique_ptr<ml::FlatForest> ModelAccess::DecodeFlatForest(
    ByteReader* reader) {
  auto forest = std::make_unique<ml::FlatForest>();
  uint32_t aggregation = reader->ReadU32();
  forest->num_features_ = reader->ReadI32();
  forest->base_score_ = reader->ReadF64();
  if (!reader->ok() ||
      aggregation >
          static_cast<uint32_t>(ml::FlatForest::Aggregation::kGbdtSigmoid)) {
    reader->Fail("flat_forest aggregation out of range");
    return nullptr;
  }
  forest->agg_ = static_cast<ml::FlatForest::Aggregation>(aggregation);
  if (forest->num_features_ <= 0) {
    reader->Fail("flat_forest feature count out of range");
    return nullptr;
  }
  uint64_t num_nodes = reader->ReadU64();
  if (!reader->ok() || num_nodes == 0 || num_nodes > kMaxNodes) {
    reader->Fail("flat_forest node count out of range");
    return nullptr;
  }
  const size_t count = static_cast<size_t>(num_nodes);
  forest->feature_.resize(count);
  forest->threshold_.resize(count);
  forest->miss_left_.resize(count);
  forest->left_.resize(count);
  forest->right_.resize(count);
  forest->leaf_value_.resize(count);
  for (size_t index = 0; index < count; ++index) {
    forest->feature_[index] = reader->ReadI32();
    forest->threshold_[index] = reader->ReadF32();
    // Booleans must be canonical (0/1): ReadBool would accept any nonzero
    // byte and re-encode it as 1, which would let a flipped bool byte
    // slip past the load-time byte comparison against the recompiled
    // classifier.
    const uint8_t miss = reader->ReadU8();
    if (reader->ok() && miss > 1) {
      reader->Fail("flat_forest boolean field not canonical");
      return nullptr;
    }
    forest->miss_left_[index] = miss != 0 ? -1 : 0;
    forest->left_[index] = reader->ReadI32();
    forest->right_[index] = reader->ReadI32();
    forest->leaf_value_[index] = reader->ReadF64();
    if (!reader->ok()) return nullptr;
    const int32_t size = static_cast<int32_t>(num_nodes);
    const int32_t self = static_cast<int32_t>(index);
    if (forest->feature_[index] >= 0) {
      // Same guarantee as the pointer-walking decoders: features in range
      // and children strictly forward-pointing, so the branchless kernels
      // can never loop or gather out of bounds. The compiler lays sibling
      // pairs adjacently (right == left + 1) and the AVX2 kernel derives
      // the right child from that invariant, so it is structural here.
      if (forest->feature_[index] >= forest->num_features_ ||
          forest->left_[index] <= self || forest->left_[index] >= size ||
          forest->right_[index] != forest->left_[index] + 1 ||
          forest->right_[index] >= size) {
        reader->Fail("flat_forest node graph invalid");
        return nullptr;
      }
    } else if (forest->feature_[index] != -1 || forest->left_[index] != 0 ||
               forest->right_[index] != 0) {
      reader->Fail("flat_forest leaf node not canonical");
      return nullptr;
    }
  }
  uint64_t num_trees = reader->ReadU64();
  if (!reader->ok() || num_trees == 0 || num_trees > kMaxTrees) {
    reader->Fail("flat_forest tree count out of range");
    return nullptr;
  }
  forest->roots_.resize(static_cast<size_t>(num_trees));
  for (int32_t& root : forest->roots_) {
    root = reader->ReadI32();
    if (!reader->ok()) return nullptr;
    if (root < 0 || root >= static_cast<int32_t>(num_nodes)) {
      reader->Fail("flat_forest root index out of range");
      return nullptr;
    }
  }
  // packed_ is a derived array (never serialized); the kernels expect it
  // in sync with feature_/miss_left_.
  forest->RebuildPacked();
  return forest;
}

void ModelAccess::EncodeImputer(const nn::KpiImputer& imputer,
                                ByteWriter* writer) {
  EncodeImputerConfig(imputer.config_, writer);
  writer->WriteF64Vector(imputer.feature_means_);
  writer->WriteF64Vector(imputer.feature_stds_);
  writer->WriteBool(imputer.network_ != nullptr);
  if (imputer.network_ == nullptr) return;

  const nn::DenoisingAutoencoder& net = *imputer.network_;
  writer->WriteI32(net.config_.input_dim);
  writer->WriteI32(net.config_.encoder_layers);
  writer->WriteF64(net.config_.learning_rate);
  writer->WriteF64(net.config_.rms_decay);
  writer->WriteU64(net.config_.seed);
  // Trained weights via the generic parameter views, in layer order. The
  // architecture is a pure function of the config, so sizes are layout
  // metadata only — verified on load against the rebuilt network.
  // Params() is non-const by interface; serialization only reads values.
  nn::Sequential& network =
      const_cast<nn::DenoisingAutoencoder&>(net).network_;
  std::vector<nn::ParamView> params = network.Params();
  writer->WriteU64(params.size());
  for (const nn::ParamView& param : params) {
    writer->WriteU64(param.size);
    for (size_t i = 0; i < param.size; ++i) {
      writer->WriteF32(param.values[i]);
    }
  }
}

std::unique_ptr<nn::KpiImputer> ModelAccess::DecodeImputer(
    ByteReader* reader) {
  nn::ImputerConfig config;
  if (!DecodeImputerConfig(reader, &config)) return nullptr;
  auto imputer = std::make_unique<nn::KpiImputer>(config);
  imputer->feature_means_ = reader->ReadF64Vector();
  imputer->feature_stds_ = reader->ReadF64Vector();
  bool has_network = reader->ReadBool();
  if (!reader->ok()) return nullptr;
  if (imputer->feature_means_.size() != imputer->feature_stds_.size()) {
    reader->Fail("imputer normalization size mismatch");
    return nullptr;
  }
  if (!has_network) return imputer;

  nn::AutoencoderConfig net_config;
  net_config.input_dim = reader->ReadI32();
  net_config.encoder_layers = reader->ReadI32();
  net_config.learning_rate = reader->ReadF64();
  net_config.rms_decay = reader->ReadF64();
  net_config.seed = reader->ReadU64();
  if (!reader->ok()) return nullptr;
  if (net_config.input_dim <= 0 || net_config.input_dim > kMaxInputDim ||
      net_config.encoder_layers <= 0 ||
      net_config.encoder_layers > kMaxEncoderLayers ||
      (net_config.input_dim >> net_config.encoder_layers) <= 0) {
    reader->Fail("autoencoder config out of range");
    return nullptr;
  }
  // Rebuild the architecture from the config (deterministic), then
  // overwrite every trainable parameter with the stored weights.
  auto network = std::make_unique<nn::DenoisingAutoencoder>(net_config);
  std::vector<nn::ParamView> params = network->network_.Params();
  uint64_t stored_params = reader->ReadU64();
  if (!reader->ok() || stored_params != params.size()) {
    reader->Fail("autoencoder parameter group count mismatch");
    return nullptr;
  }
  for (nn::ParamView& param : params) {
    uint64_t size = reader->ReadU64();
    if (!reader->ok() || size != param.size) {
      reader->Fail("autoencoder parameter size mismatch");
      return nullptr;
    }
    for (size_t i = 0; i < param.size; ++i) {
      param.values[i] = reader->ReadF32();
    }
  }
  if (!reader->ok()) return nullptr;
  imputer->network_ = std::move(network);
  return imputer;
}

void EncodeScoreConfig(const ScoreConfig& config, ByteWriter* writer) {
  writer->WriteU64(config.indicators.size());
  for (const ScoreConfig::Indicator& indicator : config.indicators) {
    writer->WriteF64(indicator.weight);
    writer->WriteF64(indicator.threshold);
    writer->WriteBool(indicator.higher_is_worse);
  }
  writer->WriteF64(config.hot_threshold);
}

bool DecodeScoreConfig(ByteReader* reader, ScoreConfig* config) {
  uint64_t count = reader->ReadU64();
  // 17 bytes per indicator; bound by what the payload can actually hold.
  if (!reader->ok() || count > reader->remaining() / 17) {
    reader->Fail("score config indicator count out of range");
    return false;
  }
  config->indicators.resize(static_cast<size_t>(count));
  for (ScoreConfig::Indicator& indicator : config->indicators) {
    indicator.weight = reader->ReadF64();
    indicator.threshold = reader->ReadF64();
    indicator.higher_is_worse = reader->ReadBool();
  }
  config->hot_threshold = reader->ReadF64();
  return reader->ok();
}

void EncodeNormalization(const NormalizationStats& stats,
                         ByteWriter* writer) {
  writer->WriteF64Vector(stats.means);
  writer->WriteF64Vector(stats.stds);
}

bool DecodeNormalization(ByteReader* reader, NormalizationStats* stats) {
  stats->means = reader->ReadF64Vector();
  stats->stds = reader->ReadF64Vector();
  if (!reader->ok()) return false;
  if (stats->means.size() != stats->stds.size()) {
    reader->Fail("normalization mean/std size mismatch");
    return false;
  }
  return true;
}

namespace {

/// Shared save/load plumbing for single-artifact files: frame the payload,
/// or read+verify it and hand the bytes to the decoder. The decoder must
/// consume the payload exactly — trailing bytes mean a writer/reader skew
/// and are rejected.
template <typename EncodeFn>
Status SaveArtifact(const std::string& path, ArtifactKind kind,
                    EncodeFn&& encode) {
  ByteWriter writer;
  encode(&writer);
  return WriteArtifactFile(path, kind, writer.bytes());
}

template <typename DecodeFn>
Status LoadArtifact(const std::string& path, ArtifactKind kind,
                    DecodeFn&& decode) {
  std::vector<uint8_t> payload;
  Status status = ReadArtifactFile(path, kind, &payload);
  if (!status.ok) return status;
  ByteReader reader(payload.data(), payload.size());
  if (!decode(&reader) || !reader.ok()) {
    std::string what =
        reader.error().empty() ? "malformed payload" : reader.error();
    return Status::Error(path + ": " + what);
  }
  if (!reader.AtEnd()) {
    return Status::Error(path + ": trailing bytes after payload");
  }
  return Status::Ok();
}

}  // namespace

Status SaveGbdt(const std::string& path, const ml::Gbdt& model) {
  return SaveArtifact(path, ArtifactKind::kGbdt, [&](ByteWriter* writer) {
    ModelAccess::EncodeGbdt(model, writer);
  });
}

Status LoadGbdt(const std::string& path, std::unique_ptr<ml::Gbdt>* model) {
  HOTSPOT_CHECK(model != nullptr);
  return LoadArtifact(path, ArtifactKind::kGbdt, [&](ByteReader* reader) {
    *model = ModelAccess::DecodeGbdt(reader);
    return *model != nullptr;
  });
}

Status SaveDecisionTree(const std::string& path,
                        const ml::DecisionTree& model) {
  return SaveArtifact(path, ArtifactKind::kDecisionTree,
                      [&](ByteWriter* writer) {
                        ModelAccess::EncodeTree(model, writer);
                      });
}

Status LoadDecisionTree(const std::string& path,
                        std::unique_ptr<ml::DecisionTree>* model) {
  HOTSPOT_CHECK(model != nullptr);
  return LoadArtifact(path, ArtifactKind::kDecisionTree,
                      [&](ByteReader* reader) {
                        *model = ModelAccess::DecodeTree(reader);
                        return *model != nullptr;
                      });
}

Status SaveRandomForest(const std::string& path,
                        const ml::RandomForest& model) {
  return SaveArtifact(path, ArtifactKind::kRandomForest,
                      [&](ByteWriter* writer) {
                        ModelAccess::EncodeForest(model, writer);
                      });
}

Status LoadRandomForest(const std::string& path,
                        std::unique_ptr<ml::RandomForest>* model) {
  HOTSPOT_CHECK(model != nullptr);
  return LoadArtifact(path, ArtifactKind::kRandomForest,
                      [&](ByteReader* reader) {
                        *model = ModelAccess::DecodeForest(reader);
                        return *model != nullptr;
                      });
}

Status SaveImputer(const std::string& path, const nn::KpiImputer& imputer) {
  return SaveArtifact(path, ArtifactKind::kImputer, [&](ByteWriter* writer) {
    ModelAccess::EncodeImputer(imputer, writer);
  });
}

Status LoadImputer(const std::string& path,
                   std::unique_ptr<nn::KpiImputer>* imputer) {
  HOTSPOT_CHECK(imputer != nullptr);
  return LoadArtifact(path, ArtifactKind::kImputer, [&](ByteReader* reader) {
    *imputer = ModelAccess::DecodeImputer(reader);
    return *imputer != nullptr;
  });
}

Status SaveScoreConfig(const std::string& path, const ScoreConfig& config) {
  return SaveArtifact(path, ArtifactKind::kScoreConfig,
                      [&](ByteWriter* writer) {
                        EncodeScoreConfig(config, writer);
                      });
}

Status LoadScoreConfig(const std::string& path, ScoreConfig* config) {
  HOTSPOT_CHECK(config != nullptr);
  ScoreConfig loaded;
  Status status = LoadArtifact(path, ArtifactKind::kScoreConfig,
                               [&](ByteReader* reader) {
                                 return DecodeScoreConfig(reader, &loaded);
                               });
  if (status.ok) *config = std::move(loaded);
  return status;
}

Status SaveNormalization(const std::string& path,
                         const NormalizationStats& stats) {
  return SaveArtifact(path, ArtifactKind::kNormalization,
                      [&](ByteWriter* writer) {
                        EncodeNormalization(stats, writer);
                      });
}

Status LoadNormalization(const std::string& path,
                         NormalizationStats* stats) {
  HOTSPOT_CHECK(stats != nullptr);
  NormalizationStats loaded;
  Status status = LoadArtifact(path, ArtifactKind::kNormalization,
                               [&](ByteReader* reader) {
                                 return DecodeNormalization(reader, &loaded);
                               });
  if (status.ok) *stats = std::move(loaded);
  return status;
}

}  // namespace hotspot::serialize
