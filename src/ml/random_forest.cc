#include "ml/random_forest.h"

#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hotspot::ml {

RandomForest::RandomForest(const ForestConfig& config) : config_(config) {
  HOTSPOT_CHECK_GT(config.num_trees, 0);
}

void RandomForest::Fit(const Dataset& data) {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  HOTSPOT_SPAN("forest/fit");
  obs::Counter* trees_built =
      ctx != nullptr ? &ctx->metrics().counter("forest/trees_built")
                     : nullptr;
  data.CheckConsistent();
  HOTSPOT_CHECK(trees_.empty());  // Fit once.
  num_features_ = data.num_features();

  // Every tree derives its own Rng stream from the config seed up front, so
  // trees never share mutable generator state and the fit is bit-identical
  // at any thread count.
  Rng root(config_.seed);
  std::vector<uint64_t> tree_seeds(static_cast<size_t>(config_.num_trees));
  for (uint64_t& seed : tree_seeds) seed = root.NextUint64();

  const int n = data.num_instances();
  trees_.resize(static_cast<size_t>(config_.num_trees));
  util::ParallelFor(0, config_.num_trees, [&](int64_t t) {
    Rng rng(tree_seeds[static_cast<size_t>(t)]);
    TreeConfig tree_config;
    tree_config.max_features_sqrt = true;
    tree_config.min_weight_fraction = config_.min_weight_fraction;
    tree_config.max_depth = config_.max_depth;
    tree_config.seed = rng.NextUint64();
    auto tree = std::make_unique<DecisionTree>(tree_config);

    if (config_.bootstrap) {
      // Bootstrap resample: draw n instances with replacement. We
      // materialize the resample (rather than weighting) so the per-node
      // sorted scans stay simple.
      Dataset sample;
      sample.features =
          Matrix<float>(n, data.num_features(), kUninitialized);
      sample.labels.resize(static_cast<size_t>(n));
      sample.weights.resize(static_cast<size_t>(n));
      for (int r = 0; r < n; ++r) {
        int i = static_cast<int>(rng.UniformInt(0, n - 1));
        const float* src = data.features.Row(i);
        float* dst = sample.features.Row(r);
        for (int c = 0; c < data.num_features(); ++c) dst[c] = src[c];
        sample.labels[static_cast<size_t>(r)] =
            data.labels[static_cast<size_t>(i)];
        sample.weights[static_cast<size_t>(r)] =
            data.weights[static_cast<size_t>(i)];
      }
      tree->Fit(sample);
    } else {
      tree->Fit(data);
    }
    trees_[static_cast<size_t>(t)] = std::move(tree);
    if (trees_built != nullptr) trees_built->Increment();
  });
}

double RandomForest::PredictProba(const float* row) const {
  HOTSPOT_CHECK(!trees_.empty());
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree->PredictProba(row);
  return sum / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::FeatureImportances() const {
  std::vector<double> importances(static_cast<size_t>(num_features_), 0.0);
  if (trees_.empty()) return importances;
  for (const auto& tree : trees_) {
    std::vector<double> tree_importances = tree->FeatureImportances();
    for (size_t k = 0; k < importances.size(); ++k) {
      importances[k] += tree_importances[k];
    }
  }
  double sum = 0.0;
  for (double imp : importances) sum += imp;
  if (sum > 0.0) {
    for (double& imp : importances) imp /= sum;
  }
  return importances;
}

const DecisionTree& RandomForest::tree(int index) const {
  HOTSPOT_CHECK(index >= 0 && index < num_trees());
  return *trees_[static_cast<size_t>(index)];
}

}  // namespace hotspot::ml
