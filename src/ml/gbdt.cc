#include "ml/gbdt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hotspot::ml {

double Sigmoid(double x) {
  if (x >= 0.0) {
    double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  double z = std::exp(x);
  return z / (1.0 + z);
}

namespace {

/// Sorts non-NaN floats ascending with an LSD radix sort, one byte per
/// pass, over keys that order like the values. The keys put -0 just below
/// +0; the two compare equal, so they merge under std::unique whichever
/// comes first, and a zero adjacent to a nonzero neighbour adds to it
/// exactly, so the cuts match a comparison sort's bit for bit. A training
/// column's comparisons mispredict often enough to make this several
/// times faster than std::sort.
void SortValues(std::vector<float>* values) {
  const size_t n = values->size();
  std::vector<uint32_t> keys(n);
  std::vector<uint32_t> sorted(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t bits = std::bit_cast<uint32_t>((*values)[i]);
    keys[i] = (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
  }
  for (int shift = 0; shift < 32; shift += 8) {
    size_t starts[257] = {};
    for (uint32_t key : keys) ++starts[((key >> shift) & 0xffu) + 1];
    // A byte every key shares leaves the order as it is.
    if (n == 0 || starts[((keys[0] >> shift) & 0xffu) + 1] == n) continue;
    for (int digit = 0; digit < 256; ++digit) {
      starts[digit + 1] += starts[digit];
    }
    for (uint32_t key : keys) sorted[starts[(key >> shift) & 0xffu]++] = key;
    keys.swap(sorted);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = keys[i];
    (*values)[i] = std::bit_cast<float>(
        (key & 0x80000000u) != 0 ? key & 0x7fffffffu : ~key);
  }
}

}  // namespace

void FeatureBinner::Fit(const Matrix<float>& features, int max_bins,
                        BinTiles* bins) {
  HOTSPOT_CHECK_GE(max_bins, 2);
  HOTSPOT_CHECK_LE(max_bins, 255);
  const int n = features.rows();
  const int d = features.cols();
  HOTSPOT_CHECK(bins == nullptr ||
                (bins->rows() == n && bins->features() == d));
  thresholds_.assign(static_cast<size_t>(d), {});
  // Parallel over blocks of BinTiles::kWidth features: a block gathers its
  // columns in one sweep over the rows (kWidth contiguous floats each)
  // instead of one strided sweep per feature, then bins the block straight
  // into its tile. Each block only touches its own thresholds and tile,
  // and every column keeps its row order, so any thread count produces the
  // serial loop's cuts and bins.
  const int blocks = (d + BinTiles::kWidth - 1) / BinTiles::kWidth;
  util::ParallelFor(0, blocks, [&](int64_t block) {
    const int first = static_cast<int>(block) * BinTiles::kWidth;
    const int width = std::min(BinTiles::kWidth, d - first);
    std::vector<std::vector<float>> columns(static_cast<size_t>(width));
    for (std::vector<float>& column : columns) {
      column.reserve(static_cast<size_t>(n));
    }
    for (int i = 0; i < n; ++i) {
      const float* row = features.Row(i) + first;
      for (int k = 0; k < width; ++k) {
        if (!IsMissing(row[k])) {
          columns[static_cast<size_t>(k)].push_back(row[k]);
        }
      }
    }
    for (int k = 0; k < width; ++k) {
      std::vector<float>& column = columns[static_cast<size_t>(k)];
      SortValues(&column);
      column.erase(std::unique(column.begin(), column.end()), column.end());
      std::vector<float>& cuts = thresholds_[static_cast<size_t>(first + k)];
      int distinct = static_cast<int>(column.size());
      if (distinct <= 1) continue;  // constant feature: one finite bin
      // max_bins-1 finite bins (bin 0 is the missing bin) need at most
      // max_bins-2 cut points.
      int num_cuts = std::min(distinct - 1, max_bins - 2);
      if (num_cuts <= 0) num_cuts = 1;
      for (int c = 1; c <= num_cuts; ++c) {
        // Evenly spaced quantiles over the distinct values; the cut sits
        // between two adjacent distinct values.
        size_t pos = static_cast<size_t>(
            static_cast<double>(c) * distinct / (num_cuts + 1));
        pos = std::min(pos, column.size() - 1);
        if (pos == 0) pos = 1;
        float cut = 0.5f * (column[pos - 1] + column[pos]);
        if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
      }
    }
    if (bins == nullptr) return;
    uint8_t* tile = bins->tile(static_cast<int>(block));
    for (int i = 0; i < n; ++i) {
      const float* row = features.Row(i) + first;
      uint8_t* dst = tile + static_cast<size_t>(i) * width;
      for (int k = 0; k < width; ++k) {
        dst[k] = static_cast<uint8_t>(Bin(first + k, row[k]));
      }
    }
  });
}

int FeatureBinner::Bin(int feature, float value) const {
  if (IsMissing(value)) return 0;
  // Bin b+1 holds values <= cuts[b]; the last bin holds the rest. The cuts
  // ascend, so the bin is one plus the number of cuts the value exceeds (a
  // lone NaN cut counts as exceeded, as a binary search treats it). The
  // count has no branches to mispredict, unlike a binary search.
  int above = 0;
  for (float cut : thresholds_[static_cast<size_t>(feature)]) {
    above += !(value <= cut);
  }
  return above + 1;
}

int FeatureBinner::NumBins(int feature) const {
  return static_cast<int>(thresholds_[static_cast<size_t>(feature)].size()) +
         2;
}

const std::vector<float>& FeatureBinner::Thresholds(int feature) const {
  return thresholds_[static_cast<size_t>(feature)];
}

Gbdt::Gbdt(const GbdtConfig& config) : config_(config) {
  HOTSPOT_CHECK_GT(config.num_iterations, 0);
  HOTSPOT_CHECK_GT(config.learning_rate, 0.0);
  HOTSPOT_CHECK_GE(config.num_leaves, 2);
  // A split may not leave a child empty; with a floor of 0 (or NaN, which
  // no comparison trips) an empty child would pass the hessian test.
  HOTSPOT_CHECK(config.min_child_hessian > 0.0)
      << "min_child_hessian must be > 0, got " << config.min_child_hessian;
  HOTSPOT_CHECK(config.feature_fraction > 0.0 &&
                config.feature_fraction <= 1.0);
  HOTSPOT_CHECK(config.bagging_fraction > 0.0 &&
                config.bagging_fraction <= 1.0);
}

namespace {

/// A leaf pending a possible split during leaf-wise growth.
struct PendingLeaf {
  int node = -1;
  std::vector<int> rows;
  double grad_sum = 0.0;
  double hess_sum = 0.0;
  int depth = 0;
  // Best split found for this leaf.
  double best_gain = 0.0;
  int best_feature = -1;
  int best_bin = -1;
  bool evaluated = false;
};

double LeafObjective(double grad_sum, double hess_sum, double lambda) {
  return grad_sum * grad_sum / (hess_sum + lambda);
}

/// How many leaf rows ahead the histogram pass prefetches tile rows.
constexpr size_t kPrefetchRows = 16;

/// Best split of one feature during the parallel histogram scan.
struct FeatureSplit {
  double gain = 0.0;
  int feature = -1;
  int bin = -1;
};

/// Features of one tile that one histogram pass covers: their columns
/// within the tile and their slots in the tree's feature list. In the
/// pass's flat histogram buffer the k-th feature's interleaved (grad,
/// hess) bin pairs start at 2 * k * stride, stride being the most bins any
/// of them has.
struct TilePlan {
  int tile = 0;
  std::vector<int> columns;
  std::vector<int> slots;
  size_t stride = 0;
};

}  // namespace

Gbdt::Tree Gbdt::BuildTree(const BinTiles& bins,
                           const std::vector<double>& grads,
                           const std::vector<double>& hessians,
                           const std::vector<int>& rows,
                           const std::vector<int>& features) {
  // Hoisted out of the leaf loop: one registry lookup per tree, relaxed
  // sharded increments inside. Null context costs one pointer test here.
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  obs::Counter* split_searches =
      ctx != nullptr ? &ctx->metrics().counter("gbdt/split_searches")
                     : nullptr;
  Tree tree;
  std::vector<PendingLeaf> leaves;

  // The tree's features grouped by tile, in tile order, as slots of the
  // (possibly sampled, unsorted) `features` list, so the merge below still
  // walks the candidates in `features` order.
  std::vector<std::vector<int>> tile_slots(
      static_cast<size_t>(bins.num_tiles()));
  for (size_t slot = 0; slot < features.size(); ++slot) {
    tile_slots[static_cast<size_t>(features[slot] / BinTiles::kWidth)]
        .push_back(static_cast<int>(slot));
  }
  // One histogram pass per tile, unless there are fewer tiles than threads:
  // then each tile's features are split into equal slices so every thread
  // gets a pass. A feature's histogram is still built by one pass in
  // leaf-row order, so the split changes the speed, not the bits.
  const size_t used_tiles = static_cast<size_t>(std::count_if(
      tile_slots.begin(), tile_slots.end(),
      [](const std::vector<int>& slots) { return !slots.empty(); }));
  const size_t slices =
      used_tiles == 0 ? 1
                      : (static_cast<size_t>(util::NumThreads()) +
                         used_tiles - 1) / used_tiles;
  std::vector<TilePlan> plans;
  for (const std::vector<int>& slots : tile_slots) {
    const size_t pieces = std::min(slices, slots.size());
    for (size_t piece = 0; piece < pieces; ++piece) {
      TilePlan& plan = plans.emplace_back();
      for (size_t k = piece * slots.size() / pieces;
           k < (piece + 1) * slots.size() / pieces; ++k) {
        const int f = features[static_cast<size_t>(slots[k])];
        plan.tile = f / BinTiles::kWidth;
        plan.columns.push_back(f % BinTiles::kWidth);
        plan.slots.push_back(slots[k]);
        plan.stride =
            std::max(plan.stride, static_cast<size_t>(binner_.NumBins(f)));
      }
    }
  }

  auto make_leaf = [&](std::vector<int> leaf_rows, int depth) {
    PendingLeaf leaf;
    leaf.node = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(Node{});
    leaf.rows = std::move(leaf_rows);
    for (int r : leaf.rows) {
      leaf.grad_sum += grads[static_cast<size_t>(r)];
      leaf.hess_sum += hessians[static_cast<size_t>(r)];
    }
    leaf.depth = depth;
    tree.nodes[static_cast<size_t>(leaf.node)].value =
        -config_.learning_rate * leaf.grad_sum /
        (leaf.hess_sum + config_.lambda_l2);
    leaves.push_back(std::move(leaf));
    return static_cast<int>(leaves.size()) - 1;
  };

  auto evaluate_leaf = [&](PendingLeaf& leaf) {
    leaf.evaluated = true;
    leaf.best_gain = 0.0;
    leaf.best_feature = -1;
    if (config_.max_depth > 0 && leaf.depth >= config_.max_depth) return;
    if (leaf.rows.size() < 2) return;
    if (split_searches != nullptr) {
      split_searches->Add(static_cast<uint64_t>(features.size()));
    }
    double parent_obj =
        LeafObjective(leaf.grad_sum, leaf.hess_sum, config_.lambda_l2);
    // Ordered gradients: the leaf's (grad, hess) pairs, gathered once in
    // leaf-row order, so the tile passes below stream them sequentially.
    const size_t num_rows = leaf.rows.size();
    std::vector<double> ordered(2 * num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      const size_t r = static_cast<size_t>(leaf.rows[i]);
      ordered[2 * i] = grads[r];
      ordered[2 * i + 1] = hessians[r];
    }
    // Parallel over passes: one pass over the leaf rows fills the
    // histograms of all its plan's features at once, each bin still adding
    // its rows in leaf-row order, so every histogram is bitwise the one a
    // per-feature pass builds. Each task writes only its own features'
    // candidate slots; the merge below walks them in `features` order with
    // the same strict `>` the serial scan used, so the chosen split is
    // bitwise-identical at any thread count. Tiny leaves stay serial —
    // same result, less scheduling overhead.
    int split_threads = num_rows * features.size() < 4096 ? 1 : 0;
    std::vector<FeatureSplit> candidates(features.size());
    util::ParallelFor(
        0, static_cast<int64_t>(plans.size()),
        [&](int64_t pi) {
          const TilePlan& plan = plans[static_cast<size_t>(pi)];
          const size_t count = plan.columns.size();
          const uint8_t* tile = bins.tile(plan.tile);
          const size_t width = static_cast<size_t>(bins.width(plan.tile));
          const size_t stride = plan.stride;
          std::vector<double> hist(2 * count * stride, 0.0);
          const int* columns = plan.columns.data();
          for (size_t i = 0; i < num_rows; ++i) {
            // A leaf's rows are scattered over the tile; fetch ahead.
            if (i + kPrefetchRows < num_rows) {
              __builtin_prefetch(
                  tile + static_cast<size_t>(leaf.rows[i + kPrefetchRows]) *
                             width);
            }
            const uint8_t* row_bins =
                tile + static_cast<size_t>(leaf.rows[i]) * width;
            const double g = ordered[2 * i];
            const double h = ordered[2 * i + 1];
            double* feature_pairs = hist.data();
            for (size_t k = 0; k < count; ++k, feature_pairs += 2 * stride) {
              double* pair = feature_pairs +
                             2 * static_cast<size_t>(row_bins[columns[k]]);
              pair[0] += g;
              pair[1] += h;
            }
          }
          for (size_t k = 0; k < count; ++k) {
            const int f = features[static_cast<size_t>(plan.slots[k])];
            const int num_bins = binner_.NumBins(f);
            const double* pairs = hist.data() + 2 * k * stride;
            FeatureSplit split;
            split.feature = f;
            double left_grad = 0.0;
            double left_hess = 0.0;
            for (int b = 0; b + 1 < num_bins; ++b) {
              left_grad += pairs[2 * b];
              left_hess += pairs[2 * b + 1];
              double right_grad = leaf.grad_sum - left_grad;
              double right_hess = leaf.hess_sum - left_hess;
              if (left_hess < config_.min_child_hessian ||
                  right_hess < config_.min_child_hessian) {
                continue;
              }
              double gain =
                  LeafObjective(left_grad, left_hess, config_.lambda_l2) +
                  LeafObjective(right_grad, right_hess, config_.lambda_l2) -
                  parent_obj;
              if (gain > split.gain) {
                split.gain = gain;
                split.bin = b;
              }
            }
            candidates[static_cast<size_t>(plan.slots[k])] = split;
          }
        },
        split_threads);
    // Ordered merge: first feature wins ties, exactly like the serial scan.
    for (const FeatureSplit& candidate : candidates) {
      if (candidate.bin >= 0 && candidate.gain > leaf.best_gain) {
        leaf.best_gain = candidate.gain;
        leaf.best_feature = candidate.feature;
        leaf.best_bin = candidate.bin;
      }
    }
  };

  std::vector<int> root_rows = rows;
  make_leaf(std::move(root_rows), 0);

  int leaf_count = 1;
  while (leaf_count < config_.num_leaves) {
    // Pick the evaluated leaf with the best gain.
    int best_index = -1;
    double best_gain = 0.0;
    for (size_t idx = 0; idx < leaves.size(); ++idx) {
      PendingLeaf& leaf = leaves[idx];
      if (leaf.node < 0) continue;  // already split
      if (!leaf.evaluated) evaluate_leaf(leaf);
      if (leaf.best_feature >= 0 && leaf.best_gain > best_gain) {
        best_gain = leaf.best_gain;
        best_index = static_cast<int>(idx);
      }
    }
    if (best_index < 0) break;

    PendingLeaf& leaf = leaves[static_cast<size_t>(best_index)];
    std::vector<int> left_rows;
    std::vector<int> right_rows;
    for (int r : leaf.rows) {
      if (bins.At(r, leaf.best_feature) <= leaf.best_bin) {
        left_rows.push_back(r);
      } else {
        right_rows.push_back(r);
      }
    }
    HOTSPOT_CHECK(!left_rows.empty() && !right_rows.empty());

    gain_importances_[static_cast<size_t>(leaf.best_feature)] +=
        leaf.best_gain;

    int node = leaf.node;
    int depth = leaf.depth;
    int feature = leaf.best_feature;
    int bin = leaf.best_bin;
    leaf.node = -1;  // consumed; references into `leaves` may dangle below
    leaf.rows.clear();

    int left_leaf = make_leaf(std::move(left_rows), depth + 1);
    int right_leaf = make_leaf(std::move(right_rows), depth + 1);
    Node& parent = tree.nodes[static_cast<size_t>(node)];
    parent.feature = feature;
    parent.bin_threshold = bin;
    parent.left = leaves[static_cast<size_t>(left_leaf)].node;
    parent.right = leaves[static_cast<size_t>(right_leaf)].node;
    parent.value = 0.0;
    ++leaf_count;
  }
  return tree;
}

void Gbdt::Fit(const Dataset& data) {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  HOTSPOT_SPAN("gbdt/fit");
  data.CheckConsistent();
  HOTSPOT_CHECK(trees_.empty());  // Fit once.
  const int n = data.num_instances();
  HOTSPOT_CHECK_GT(n, 0);
  num_features_ = data.num_features();
  gain_importances_.assign(static_cast<size_t>(num_features_), 0.0);

  BinTiles bins(n, num_features_);
  {
    HOTSPOT_SPAN("gbdt/bin_build");
    binner_.Fit(data.features, config_.max_bins, &bins);
    if (ctx != nullptr) {
      ctx->metrics().counter("gbdt/bin_builds").Increment();
    }
  }

  // Weighted prior.
  double weight_sum = 0.0;
  double positive_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    weight_sum += data.weights[static_cast<size_t>(i)];
    if (data.labels[static_cast<size_t>(i)] != 0.0f) {
      positive_weight += data.weights[static_cast<size_t>(i)];
    }
  }
  double prior = std::clamp(positive_weight / weight_sum, 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(prior / (1.0 - prior));

  std::vector<double> scores(static_cast<size_t>(n), base_score_);
  std::vector<double> grads(static_cast<size_t>(n));
  std::vector<double> hessians(static_cast<size_t>(n));

  Rng rng(config_.seed);
  std::vector<int> all_features(static_cast<size_t>(num_features_));
  for (int f = 0; f < num_features_; ++f) {
    all_features[static_cast<size_t>(f)] = f;
  }

  std::vector<double> loss_terms(static_cast<size_t>(n));

  for (int iter = 0; iter < config_.num_iterations; ++iter) {
    // Per-row terms in parallel; the loss reduction stays an ordered serial
    // sum over the precomputed terms so it is identical at any thread count.
    util::ParallelFor(0, n, [&](int64_t i) {
      double p = Sigmoid(scores[static_cast<size_t>(i)]);
      double y = data.labels[static_cast<size_t>(i)] != 0.0f ? 1.0 : 0.0;
      double w = data.weights[static_cast<size_t>(i)];
      grads[static_cast<size_t>(i)] = w * (p - y);
      hessians[static_cast<size_t>(i)] = w * std::max(p * (1.0 - p), 1e-9);
      double clipped = std::clamp(p, 1e-12, 1.0 - 1e-12);
      loss_terms[static_cast<size_t>(i)] =
          w * (y * std::log(clipped) + (1.0 - y) * std::log(1.0 - clipped));
    });
    double loss = 0.0;
    for (int i = 0; i < n; ++i) loss -= loss_terms[static_cast<size_t>(i)];
    training_loss_.push_back(loss / weight_sum);

    // Row / feature subsampling.
    std::vector<int> rows;
    if (config_.bagging_fraction < 1.0) {
      int take = std::max(1, static_cast<int>(config_.bagging_fraction * n));
      rows = rng.SampleWithoutReplacement(n, take);
    } else {
      rows.resize(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
    }
    std::vector<int> features;
    if (config_.feature_fraction < 1.0) {
      int take = std::max(
          1, static_cast<int>(config_.feature_fraction * num_features_));
      features = rng.SampleWithoutReplacement(num_features_, take);
    } else {
      features = all_features;
    }

    Tree tree;
    {
      HOTSPOT_SPAN("gbdt/build_tree");
      tree = BuildTree(bins, grads, hessians, rows, features);
    }
    if (ctx != nullptr) {
      ctx->metrics().counter("gbdt/trees_built").Increment();
    }

    // Update scores for all rows (row i only touches scores[i]).
    util::ParallelFor(0, n, [&](int64_t i) {
      int node = 0;
      while (tree.nodes[static_cast<size_t>(node)].feature >= 0) {
        const Node& current = tree.nodes[static_cast<size_t>(node)];
        node = bins.At(static_cast<int>(i), current.feature) <=
                       current.bin_threshold
                   ? current.left
                   : current.right;
      }
      scores[static_cast<size_t>(i)] +=
          tree.nodes[static_cast<size_t>(node)].value;
    });
    trees_.push_back(std::move(tree));
  }
}

double Gbdt::PredictRaw(const float* row) const {
  HOTSPOT_CHECK(!trees_.empty());
  double score = base_score_;
  for (const Tree& tree : trees_) {
    int node = 0;
    while (tree.nodes[static_cast<size_t>(node)].feature >= 0) {
      const Node& current = tree.nodes[static_cast<size_t>(node)];
      int bin = binner_.Bin(current.feature, row[current.feature]);
      node = bin <= current.bin_threshold ? current.left : current.right;
    }
    score += tree.nodes[static_cast<size_t>(node)].value;
  }
  return score;
}

double Gbdt::PredictProba(const float* row) const {
  return Sigmoid(PredictRaw(row));
}

std::vector<double> Gbdt::FeatureImportances() const {
  std::vector<double> importances = gain_importances_;
  double sum = 0.0;
  for (double imp : importances) sum += imp;
  if (sum > 0.0) {
    for (double& imp : importances) imp /= sum;
  }
  return importances;
}

}  // namespace hotspot::ml
