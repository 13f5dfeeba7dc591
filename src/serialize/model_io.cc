#include "serialize/model_io.h"

#include <string>
#include <utility>
#include <vector>

namespace hotspot::serialize {

namespace {

/// Upper bounds on decoded structure sizes. These are sanity gates against
/// corrupted or adversarial counts, far above anything the library
/// produces; structural reads are additionally bounded by the payload size
/// inside ByteReader.
constexpr uint64_t kMaxNodes = 1u << 28;
constexpr uint64_t kMaxTrees = 1u << 20;
/// Encoded node sizes: a node count is also gated by what the payload can
/// hold before the node array is allocated.
constexpr uint64_t kGbdtNodeBytes = 4 * 4 + 8;
constexpr uint64_t kTreeNodeBytes = 5 * 4;

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
      config->num_leaves < 2 || !(config->lambda_l2 >= 0.0) ||
      !(config->min_child_hessian > 0.0) ||
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

/// Why an internal node's children break the tree shape, or null when they
/// do not. Children must be in range and strictly forward (the builders
/// append children after their parent), so traversal terminates; and no
/// node may be the child of two parents (left == right included), so the
/// nodes form a tree and FlatForest::Compile — which copies a node once
/// per path that reaches it — stays linear in the node count instead of
/// doubling per shared level. `claimed` has one flag per node of the tree.
const char* ChildError(int self, int left, int right,
                       std::vector<uint8_t>* claimed) {
  const int size = static_cast<int>(claimed->size());
  if (left <= self || left >= size || right <= self || right >= size) {
    return "node graph invalid";
  }
  uint8_t& left_claimed = (*claimed)[static_cast<size_t>(left)];
  uint8_t& right_claimed = (*claimed)[static_cast<size_t>(right)];
  if (left == right || left_claimed != 0 || right_claimed != 0) {
    return "node graph has a shared child";
  }
  left_claimed = right_claimed = 1;
  return nullptr;
}

}  // namespace

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
  if (num_trees == 0) {
    reader->Fail("gbdt has no trees");
    return nullptr;
  }
  model->trees_.resize(static_cast<size_t>(num_trees));
  for (ml::Gbdt::Tree& tree : model->trees_) {
    uint64_t num_nodes = reader->ReadU64();
    if (!reader->ok() || num_nodes == 0 || num_nodes > kMaxNodes ||
        num_nodes > reader->remaining() / kGbdtNodeBytes) {
      reader->Fail("gbdt node count out of range");
      return nullptr;
    }
    tree.nodes.resize(static_cast<size_t>(num_nodes));
    std::vector<uint8_t> claimed(tree.nodes.size(), 0);
    for (size_t index = 0; index < tree.nodes.size(); ++index) {
      ml::Gbdt::Node& node = tree.nodes[index];
      node.feature = reader->ReadI32();
      node.bin_threshold = reader->ReadI32();
      node.left = reader->ReadI32();
      node.right = reader->ReadI32();
      node.value = reader->ReadF64();
      if (!reader->ok()) return nullptr;
      if (node.feature < 0) continue;
      const char* why =
          node.feature >= model->num_features_
              ? "node graph invalid"
              : ChildError(static_cast<int>(index), node.left, node.right,
                           &claimed);
      if (why != nullptr) {
        reader->Fail(std::string("gbdt ") + why);
        return nullptr;
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
  if (!reader->ok() || num_nodes > kMaxNodes ||
      num_nodes > reader->remaining() / kTreeNodeBytes) {
    reader->Fail("tree node count out of range");
    return nullptr;
  }
  if (num_nodes == 0) {
    reader->Fail("tree has no nodes");
    return nullptr;
  }
  model->nodes_.resize(static_cast<size_t>(num_nodes));
  std::vector<uint8_t> claimed(model->nodes_.size(), 0);
  for (size_t index = 0; index < model->nodes_.size(); ++index) {
    ml::DecisionTree::Node& node = model->nodes_[index];
    node.feature = reader->ReadI32();
    node.threshold = reader->ReadF32();
    node.left = reader->ReadI32();
    node.right = reader->ReadI32();
    node.prob = reader->ReadF32();
    if (!reader->ok()) return nullptr;
    if (node.feature < 0) continue;
    const char* why =
        node.feature >= model->num_features_
            ? "node graph invalid"
            : ChildError(static_cast<int>(index), node.left, node.right,
                         &claimed);
    if (why != nullptr) {
      reader->Fail(std::string("tree ") + why);
      return nullptr;
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
  if (num_trees == 0) {
    reader->Fail("forest has no trees");
    return nullptr;
  }
  model->trees_.reserve(static_cast<size_t>(num_trees));
  for (uint64_t t = 0; t < num_trees; ++t) {
    std::unique_ptr<ml::DecisionTree> tree = DecodeTree(reader);
    if (tree == nullptr) return nullptr;
    // Every tree reads the forest's rows: a wider tree could index past
    // them.
    if (tree->num_features_ != model->num_features_) {
      reader->Fail("forest tree feature count does not match the forest");
      return nullptr;
    }
    model->trees_.push_back(std::move(tree));
  }
  return model;
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

}  // namespace hotspot::serialize
