#include "ml/gbdt.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "stats/percentile.h"
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

std::vector<int> ColumnRepresentatives(const Matrix<float>& features) {
  const int n = features.rows();
  const int d = features.cols();
  // One sweep over the rows folds each row's bits into every column's
  // hash. (h ^ bits) * odd maps h one to one for a given value, so two
  // columns that differ in a single row never share a hash.
  std::vector<uint64_t> hashes(static_cast<size_t>(d), 0);
  for (int i = 0; i < n; ++i) {
    const float* row = features.Row(i);
    for (size_t f = 0; f < static_cast<size_t>(d); ++f) {
      hashes[f] = (hashes[f] ^ std::bit_cast<uint32_t>(row[f])) *
                  0x9e3779b97f4a7c15u;
    }
  }
  // Each column's candidate is the first column with its hash; one sweep
  // over the rows confirms every candidate that is another column.
  std::vector<int> representatives(static_cast<size_t>(d));
  std::unordered_map<uint64_t, int> first_with_hash;
  first_with_hash.reserve(static_cast<size_t>(d));
  std::vector<int> copies;
  for (int f = 0; f < d; ++f) {
    const int candidate =
        first_with_hash.try_emplace(hashes[static_cast<size_t>(f)], f)
            .first->second;
    representatives[static_cast<size_t>(f)] = candidate;
    if (candidate != f) copies.push_back(f);
  }
  std::vector<uint8_t> differs(copies.size(), 0);
  for (int i = 0; i < n && !copies.empty(); ++i) {
    const float* row = features.Row(i);
    for (size_t c = 0; c < copies.size(); ++c) {
      const int f = copies[c];
      differs[c] |= std::bit_cast<uint32_t>(row[f]) !=
                    std::bit_cast<uint32_t>(
                        row[representatives[static_cast<size_t>(f)]]);
    }
  }
  for (size_t c = 0; c < copies.size(); ++c) {
    if (differs[c]) {
      representatives[static_cast<size_t>(copies[c])] = copies[c];
    }
  }
  return representatives;
}

std::vector<int> FeatureBinner::Fit(const Matrix<float>& features,
                                    int max_bins, BinTiles* bins) {
  HOTSPOT_CHECK_GE(max_bins, 2);
  HOTSPOT_CHECK_LE(max_bins, 255);
  const int n = features.rows();
  const int d = features.cols();
  HOTSPOT_CHECK(bins == nullptr ||
                (bins->rows() == n && bins->features() == d));
  std::vector<int> representatives = ColumnRepresentatives(features);
  thresholds_.assign(static_cast<size_t>(d), {});
  // Parallel over blocks of BinTiles::kWidth features: a block gathers its
  // representatives' columns in one sweep over the rows (kWidth contiguous
  // floats each) instead of one strided sweep per feature, then bins them
  // straight into its tile. Each block only touches its own thresholds and
  // tile, and every column keeps its row order, so any thread count
  // produces the serial loop's cuts and bins.
  const int blocks = (d + BinTiles::kWidth - 1) / BinTiles::kWidth;
  util::ParallelFor(0, blocks, [&](int64_t block) {
    const int first = static_cast<int>(block) * BinTiles::kWidth;
    const int width = std::min(BinTiles::kWidth, d - first);
    int offsets[BinTiles::kWidth];  // of the block's representatives
    int count = 0;
    for (int k = 0; k < width; ++k) {
      if (representatives[static_cast<size_t>(first + k)] == first + k) {
        offsets[count++] = k;
      }
    }
    std::vector<std::vector<float>> columns(static_cast<size_t>(count));
    for (std::vector<float>& column : columns) {
      column.reserve(static_cast<size_t>(n));
    }
    for (int i = 0; i < n; ++i) {
      const float* row = features.Row(i) + first;
      for (int j = 0; j < count; ++j) {
        if (!IsMissing(row[offsets[j]])) {
          columns[static_cast<size_t>(j)].push_back(row[offsets[j]]);
        }
      }
    }
    for (int j = 0; j < count; ++j) {
      std::vector<float>& column = columns[static_cast<size_t>(j)];
      // The radix sort puts -0 just below +0. The two compare equal, so
      // they merge under std::unique whichever comes first, and a zero
      // adjacent to a nonzero neighbour adds to it exactly, so the cuts
      // match a comparison sort's bit for bit.
      column = RadixSorted(column);
      column.erase(std::unique(column.begin(), column.end()), column.end());
      std::vector<float>& cuts =
          thresholds_[static_cast<size_t>(first + offsets[j])];
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
      for (int j = 0; j < count; ++j) {
        dst[offsets[j]] =
            static_cast<uint8_t>(Bin(first + offsets[j], row[offsets[j]]));
      }
    }
  });
  // Every other column of a class takes its representative's cuts and,
  // once all representatives are binned, a copy of its bins.
  for (int f = 0; f < d; ++f) {
    const int representative = representatives[static_cast<size_t>(f)];
    if (representative != f) {
      thresholds_[static_cast<size_t>(f)] =
          thresholds_[static_cast<size_t>(representative)];
    }
  }
  if (bins == nullptr) return representatives;
  util::ParallelFor(0, blocks, [&](int64_t block) {
    const int tile = static_cast<int>(block);
    const int first = tile * BinTiles::kWidth;
    const size_t width = static_cast<size_t>(bins->width(tile));
    size_t offsets[BinTiles::kWidth];  // of the tile's copies
    const uint8_t* sources[BinTiles::kWidth];
    size_t strides[BinTiles::kWidth];
    size_t count = 0;
    for (size_t k = 0; k < width; ++k) {
      const int f = first + static_cast<int>(k);
      const int representative = representatives[static_cast<size_t>(f)];
      if (representative == f) continue;
      const int source_tile = representative / BinTiles::kWidth;
      offsets[count] = k;
      sources[count] = bins->tile(source_tile) +
                       representative % BinTiles::kWidth;
      strides[count] = static_cast<size_t>(bins->width(source_tile));
      ++count;
    }
    if (count == 0) return;
    uint8_t* dst = bins->tile(tile);
    for (size_t i = 0; i < static_cast<size_t>(n); ++i, dst += width) {
      for (size_t j = 0; j < count; ++j) {
        dst[offsets[j]] = sources[j][i * strides[j]];
      }
    }
  });
  return representatives;
}

int FeatureBinner::Bin(int feature, float value) const {
  if (IsMissing(value)) return 0;
  // Bin b+1 holds values <= cuts[b]; the last bin holds the rest. The cuts
  // strictly ascend, so the bin is one plus the number of cuts the value
  // exceeds, found by a binary search that selects instead of branching. A
  // NaN cut only ever stands alone (the -Inf/+Inf midpoint), and
  // `!(value <= cut)` counts it as exceeded.
  const std::vector<float>& cuts = thresholds_[static_cast<size_t>(feature)];
  if (cuts.empty()) return 1;
  const float* base = cuts.data();
  size_t count = cuts.size();
  while (count > 1) {
    const size_t half = count / 2;
    base += !(value <= base[half]) ? half : 0;
    count -= half;
  }
  return static_cast<int>(base - cuts.data()) + !(value <= *base) + 1;
}

int FeatureBinner::NumBins(int feature) const {
  return static_cast<int>(thresholds_[static_cast<size_t>(feature)].size()) +
         2;
}

const std::vector<float>& FeatureBinner::Thresholds(int feature) const {
  return thresholds_[static_cast<size_t>(feature)];
}

HistogramLayout::HistogramLayout(const std::vector<int>& num_bins) {
  offsets_.reserve(num_bins.size() + 1);
  size_t offset = 0;
  for (int bins : num_bins) {
    HOTSPOT_CHECK(bins >= 0 && bins <= 256);
    offsets_.push_back(offset);
    offset += 2 * static_cast<size_t>(bins);
  }
  offsets_.push_back(offset);
}

namespace {

/// How many leaf rows ahead the histogram pass prefetches tile rows.
constexpr size_t kPrefetchRows = 16;

}  // namespace

void BuildHistograms(const BinTiles& bins, const HistogramLayout& layout,
                     std::span<const int> features, std::span<const int> rows,
                     const int64_t* pairs, int64_t* hist) {
  if (features.empty()) return;
  HOTSPOT_CHECK_LE(features.size(), static_cast<size_t>(BinTiles::kWidth));
  const int tile_index = features[0] / BinTiles::kWidth;
  const uint8_t* tile = bins.tile(tile_index);
  const size_t width = static_cast<size_t>(bins.width(tile_index));
  // Each feature's column in the tile and the start of its bin pairs.
  const size_t count = features.size();
  size_t columns[BinTiles::kWidth];
  int64_t* starts[BinTiles::kWidth];
  for (size_t k = 0; k < count; ++k) {
    HOTSPOT_CHECK_EQ(features[k] / BinTiles::kWidth, tile_index);
    columns[k] = static_cast<size_t>(features[k] % BinTiles::kWidth);
    starts[k] = hist + layout.offset(features[k]);
    std::fill_n(starts[k], 2 * layout.num_bins(features[k]), int64_t{0});
  }
  // One pass over the rows fills every feature's histogram at once.
  const size_t num_rows = rows.size();
  for (size_t i = 0; i < num_rows; ++i) {
    // A leaf's rows are scattered over the tile; fetch ahead.
    if (i + kPrefetchRows < num_rows) {
      __builtin_prefetch(tile +
                         static_cast<size_t>(rows[i + kPrefetchRows]) * width);
    }
    const uint8_t* row_bins = tile + static_cast<size_t>(rows[i]) * width;
    const int64_t g = pairs[2 * i];
    const int64_t h = pairs[2 * i + 1];
    for (size_t k = 0; k < count; ++k) {
      int64_t* pair = starts[k] + 2 * static_cast<size_t>(row_bins[columns[k]]);
      pair[0] += g;
      pair[1] += h;
    }
  }
}

void SubtractHistograms(const HistogramLayout& layout,
                        std::span<const int> features, const int64_t* child,
                        int64_t* parent) {
  for (int f : features) {
    const size_t begin = layout.offset(f);
    const size_t end = begin + 2 * static_cast<size_t>(layout.num_bins(f));
    for (size_t j = begin; j < end; ++j) parent[j] -= child[j];
  }
}

/// Histogram buffers for the leaves of one Fit's trees that may still
/// split. A leaf returns its buffer once it has split or cannot, and the
/// next leaf takes it, so a Fit allocates at most num_leaves - 1 buffers,
/// each on first need.
class Gbdt::HistogramPool {
 public:
  explicit HistogramPool(size_t size) : size_(size) {}

  int64_t* Acquire() {
    if (free_.empty()) {
      // Uninitialized: the tile tasks zero what they build, so each page
      // is first touched by the thread that fills it.
      buffers_.push_back(std::make_unique_for_overwrite<int64_t[]>(size_));
      return buffers_.back().get();
    }
    int64_t* buffer = free_.back();
    free_.pop_back();
    return buffer;
  }
  void Release(int64_t* buffer) {
    if (buffer != nullptr) free_.push_back(buffer);
  }

 private:
  size_t size_;
  std::vector<std::unique_ptr<int64_t[]>> buffers_;
  std::vector<int64_t*> free_;
};

Gbdt::Gbdt(const GbdtConfig& config) : config_(config) {
  HOTSPOT_CHECK_GT(config.num_iterations, 0);
  HOTSPOT_CHECK_GT(config.learning_rate, 0.0);
  HOTSPOT_CHECK_GE(config.num_leaves, 2);
  // A split may not leave a child empty; with a floor of 0 (or NaN, which
  // no comparison trips) an empty child would pass the hessian test.
  HOTSPOT_CHECK(config.min_child_hessian > 0.0)
      << "min_child_hessian must be > 0, got " << config.min_child_hessian;
  // A negative or NaN L2 term can turn a leaf value NaN, and rounding the
  // next iteration's NaN gradients to fixed point is undefined.
  HOTSPOT_CHECK(config.lambda_l2 >= 0.0)
      << "lambda_l2 must be >= 0, got " << config.lambda_l2;
  HOTSPOT_CHECK(config.feature_fraction > 0.0 &&
                config.feature_fraction <= 1.0);
  HOTSPOT_CHECK(config.bagging_fraction > 0.0 &&
                config.bagging_fraction <= 1.0);
}

namespace {

/// A leaf pending a possible split during leaf-wise growth. Sums are fixed
/// point, in units of 1 / scale.
struct PendingLeaf {
  int node = -1;
  std::vector<int> rows;
  int64_t grad_sum = 0;
  int64_t hess_sum = 0;
  int depth = 0;
  /// Its histograms, held from its evaluation until it splits, while it
  /// may still split.
  int64_t* hist = nullptr;
  // Best split found for this leaf, and the left child's sums under it.
  double best_gain = 0.0;
  int best_feature = -1;
  int best_bin = -1;
  int64_t best_left_grad = 0;
  int64_t best_left_hess = 0;
};

double LeafObjective(double grad_sum, double hess_sum, double lambda) {
  return grad_sum * grad_sum / (hess_sum + lambda);
}

/// Best split of one candidate during the parallel histogram scan.
struct FeatureSplit {
  double gain = 0.0;
  int bin = -1;
  int64_t left_grad = 0;
  int64_t left_hess = 0;
};

/// Candidates of one tile that one tile task covers: the representatives
/// whose histograms it builds and scans, and the candidates' slots in the
/// tree's feature list.
struct TilePlan {
  std::vector<int> features;
  std::vector<int> slots;
};

/// The bins each feature gets in the histograms: all of them for a class
/// representative, none for the other members of its class, whose
/// histograms would be the same, and none when every training row falls
/// in one bin. Such a feature never splits: any split leaves one child
/// without rows, and so without the hessian min_child_hessian > 0 asks
/// for. Occupancy, not the bin count, decides: a constant column with NaNs
/// still splits missing from present.
std::vector<int> HistogramBins(const BinTiles& bins,
                               const FeatureBinner& binner,
                               const std::vector<int>& representatives) {
  std::vector<int> num_bins(static_cast<size_t>(bins.features()), 0);
  util::ParallelFor(0, bins.num_tiles(), [&](int64_t t) {
    const int tile = static_cast<int>(t);
    const uint8_t* first = bins.tile(tile);
    const size_t width = static_cast<size_t>(bins.width(tile));
    bool differs[BinTiles::kWidth] = {};
    for (size_t r = 1; r < static_cast<size_t>(bins.rows()); ++r) {
      const uint8_t* row = first + r * width;
      for (size_t k = 0; k < width; ++k) differs[k] |= row[k] != first[k];
    }
    for (size_t k = 0; k < width; ++k) {
      const int f = tile * BinTiles::kWidth + static_cast<int>(k);
      if (differs[k] && representatives[static_cast<size_t>(f)] == f) {
        num_bins[static_cast<size_t>(f)] = binner.NumBins(f);
      }
    }
  });
  return num_bins;
}

/// The power of two that scales a total weight of `weight_sum` to just
/// under 2^61. A row's |gradient| is at most its weight and its hessian at
/// most a quarter of it, so no sum of rounded rows (each off by at most a
/// half) can leave the int64 range. Clamped so the scale and its inverse
/// stay finite and normal for any positive finite sum.
double FixedPointScale(double weight_sum) {
  int exponent = 0;
  std::frexp(weight_sum, &exponent);  // weight_sum < 2^exponent
  return std::ldexp(1.0, std::clamp(61 - exponent, -1000, 1000));
}

}  // namespace

Gbdt::Tree Gbdt::BuildTree(const BinTiles& bins, const HistogramLayout& layout,
                           const std::vector<int>& representatives,
                           const std::vector<int64_t>& gradients,
                           double inv_scale, HistogramPool* pool,
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

  // The tree's candidates: the first feature of each column class in the
  // (possibly sampled, unsorted) `features` list, for the classes that can
  // split. Identical columns have identical histograms and splits, and the
  // merge below lets only the first of equal gains win, so no later member
  // of a class could. A candidate's histograms are built and scanned at its
  // representative; they are grouped by the representative's tile, in tile
  // order, as slots of `features`, so the merge still walks the candidates
  // in `features` order.
  std::vector<std::vector<int>> tile_slots(
      static_cast<size_t>(bins.num_tiles()));
  std::vector<bool> claimed(representatives.size(), false);
  size_t num_candidates = 0;
  for (size_t slot = 0; slot < features.size(); ++slot) {
    const int representative =
        representatives[static_cast<size_t>(features[slot])];
    if (layout.num_bins(representative) == 0 ||
        claimed[static_cast<size_t>(representative)]) {
      continue;
    }
    claimed[static_cast<size_t>(representative)] = true;
    tile_slots[static_cast<size_t>(representative / BinTiles::kWidth)]
        .push_back(static_cast<int>(slot));
    ++num_candidates;
  }
  // One task per tile, unless there are fewer tiles than threads: then each
  // tile's features are split into equal slices so every thread gets a
  // task. Each feature's histogram is an exact integer sum, so the split
  // changes the speed, not the bits.
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
        plan.features.push_back(representatives[static_cast<size_t>(
            features[static_cast<size_t>(slots[k])])]);
        plan.slots.push_back(slots[k]);
      }
    }
  }

  auto make_leaf = [&](std::vector<int> leaf_rows, int depth,
                       int64_t grad_sum, int64_t hess_sum) {
    PendingLeaf leaf;
    leaf.node = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(Node{});
    leaf.rows = std::move(leaf_rows);
    leaf.grad_sum = grad_sum;
    leaf.hess_sum = hess_sum;
    leaf.depth = depth;
    // A leaf without curvature (no hessian and lambda_l2 = 0, as when a
    // bag holds only zero-weight rows) takes no step instead of 0 / 0.
    const double curvature =
        static_cast<double>(hess_sum) * inv_scale + config_.lambda_l2;
    tree.nodes[static_cast<size_t>(leaf.node)].value =
        curvature > 0.0 ? -config_.learning_rate *
                              (static_cast<double>(grad_sum) * inv_scale) /
                              curvature
                        : 0.0;
    leaves.push_back(std::move(leaf));
    return static_cast<int>(leaves.size()) - 1;
  };
  auto can_split = [&](const PendingLeaf& leaf) {
    return (config_.max_depth <= 0 || leaf.depth < config_.max_depth) &&
           leaf.rows.size() >= 2 && num_candidates > 0;
  };

  // Best split of one feature for `leaf` from its histograms.
  auto scan = [&](const PendingLeaf& leaf, int f) {
    const double parent_obj = LeafObjective(
        static_cast<double>(leaf.grad_sum) * inv_scale,
        static_cast<double>(leaf.hess_sum) * inv_scale, config_.lambda_l2);
    const int num_bins = layout.num_bins(f);
    const int64_t* pairs = leaf.hist + layout.offset(f);
    FeatureSplit split;
    int64_t left_grad = 0;
    int64_t left_hess = 0;
    for (int b = 0; b + 1 < num_bins; ++b) {
      // An empty bin leaves the running sums, and so the gain, as the
      // previous bin had them, and a tie never wins.
      if (pairs[2 * b] == 0 && pairs[2 * b + 1] == 0) continue;
      left_grad += pairs[2 * b];
      left_hess += pairs[2 * b + 1];
      const double left_h = static_cast<double>(left_hess) * inv_scale;
      const double right_h =
          static_cast<double>(leaf.hess_sum - left_hess) * inv_scale;
      if (left_h < config_.min_child_hessian ||
          right_h < config_.min_child_hessian) {
        continue;
      }
      const double gain =
          LeafObjective(static_cast<double>(left_grad) * inv_scale, left_h,
                        config_.lambda_l2) +
          LeafObjective(
              static_cast<double>(leaf.grad_sum - left_grad) * inv_scale,
              right_h, config_.lambda_l2) -
          parent_obj;
      if (gain > split.gain) {
        split.gain = gain;
        split.bin = b;
        split.left_grad = left_grad;
        split.left_hess = left_hess;
      }
    }
    return split;
  };

  // Ordered merge: first feature wins ties, like a serial scan in
  // `features` order, and a split carries its candidate's own feature id.
  // A leaf that found no split gives its buffer back.
  auto settle = [&](PendingLeaf& leaf,
                    const std::vector<FeatureSplit>& candidates) {
    for (size_t slot = 0; slot < candidates.size(); ++slot) {
      const FeatureSplit& candidate = candidates[slot];
      if (candidate.bin >= 0 && candidate.gain > leaf.best_gain) {
        leaf.best_gain = candidate.gain;
        leaf.best_feature = features[slot];
        leaf.best_bin = candidate.bin;
        leaf.best_left_grad = candidate.left_grad;
        leaf.best_left_hess = candidate.left_hess;
      }
    }
    if (leaf.best_feature < 0) {
      pool->Release(leaf.hist);
      leaf.hist = nullptr;
    }
    if (split_searches != nullptr) split_searches->Add(num_candidates);
  };

  // Builds `built`'s histograms from its rows into its buffer. With a
  // `derived` leaf, whose buffer holds the histograms of the two's parent,
  // subtracts them from it, which leaves exactly derived's own. Then scans
  // each of the two that may split. One task per tile plan does all of
  // this for its features, so zeroing, building, subtracting and scanning
  // run on the threads that own those bins.
  auto evaluate = [&](PendingLeaf& built, PendingLeaf* derived) {
    const size_t num_rows = built.rows.size();
    // Ordered gradients: the leaf's pairs gathered once in leaf-row order,
    // so the tile passes stream them sequentially.
    std::vector<int64_t> ordered(2 * num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      const size_t r = static_cast<size_t>(built.rows[i]);
      ordered[2 * i] = gradients[2 * r];
      ordered[2 * i + 1] = gradients[2 * r + 1];
    }
    const bool scan_built = can_split(built);
    std::vector<FeatureSplit> built_candidates(scan_built ? features.size()
                                                          : 0);
    std::vector<FeatureSplit> derived_candidates(
        derived != nullptr ? features.size() : 0);
    const auto run_plan = [&](int64_t pi) {
      const TilePlan& plan = plans[static_cast<size_t>(pi)];
      BuildHistograms(bins, layout, plan.features, built.rows,
                      ordered.data(), built.hist);
      if (derived != nullptr) {
        SubtractHistograms(layout, plan.features, built.hist, derived->hist);
      }
      for (size_t k = 0; k < plan.features.size(); ++k) {
        const size_t slot = static_cast<size_t>(plan.slots[k]);
        if (scan_built) {
          built_candidates[slot] = scan(built, plan.features[k]);
        }
        if (derived != nullptr) {
          derived_candidates[slot] = scan(*derived, plan.features[k]);
        }
      }
    };
    const int64_t num_plans = static_cast<int64_t>(plans.size());
    if (num_rows * num_candidates < 4096) {
      // Tiny leaves stay serial: same result, less scheduling overhead.
      for (int64_t pi = 0; pi < num_plans; ++pi) run_plan(pi);
    } else {
      util::ParallelFor(0, num_plans, run_plan);
    }
    if (scan_built) {
      settle(built, built_candidates);
    } else {
      pool->Release(built.hist);
      built.hist = nullptr;
    }
    if (derived != nullptr) settle(*derived, derived_candidates);
  };

  int64_t root_grad = 0;
  int64_t root_hess = 0;
  for (int r : rows) {
    root_grad += gradients[2 * static_cast<size_t>(r)];
    root_hess += gradients[2 * static_cast<size_t>(r) + 1];
  }
  make_leaf(rows, 0, root_grad, root_hess);
  if (can_split(leaves[0])) {
    leaves[0].hist = pool->Acquire();
    evaluate(leaves[0], nullptr);
  }

  int leaf_count = 1;
  std::vector<int> ranked;
  while (leaf_count < config_.num_leaves) {
    // The pending leaves that can split, best gain first, an earlier leaf
    // first among equal gains. Every pending leaf is evaluated.
    ranked.clear();
    for (size_t idx = 0; idx < leaves.size(); ++idx) {
      if (leaves[idx].node >= 0 && leaves[idx].best_feature >= 0) {
        ranked.push_back(static_cast<int>(idx));
      }
    }
    std::stable_sort(ranked.begin(), ranked.end(), [&](int a, int b) {
      return leaves[static_cast<size_t>(a)].best_gain >
             leaves[static_cast<size_t>(b)].best_gain;
    });
    // Each split takes the top leaf, and a leaf leaves the ranking only by
    // being split, so a leaf outranked by as many leaves as splits remain
    // is never split: its buffer goes back now.
    const size_t remaining =
        static_cast<size_t>(config_.num_leaves - leaf_count);
    for (size_t r = remaining; r < ranked.size(); ++r) {
      PendingLeaf& unreachable = leaves[static_cast<size_t>(ranked[r])];
      pool->Release(unreachable.hist);
      unreachable.hist = nullptr;
    }
    if (ranked.empty()) break;

    PendingLeaf& leaf = leaves[static_cast<size_t>(ranked[0])];
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

    const int node = leaf.node;
    const int depth = leaf.depth;
    const int feature = leaf.best_feature;
    const int bin = leaf.best_bin;
    const int64_t left_grad = leaf.best_left_grad;
    const int64_t left_hess = leaf.best_left_hess;
    const int64_t right_grad = leaf.grad_sum - left_grad;
    const int64_t right_hess = leaf.hess_sum - left_hess;
    int64_t* parent_hist = leaf.hist;
    leaf.node = -1;  // consumed; references into `leaves` may dangle below
    leaf.hist = nullptr;
    leaf.rows = {};

    const int left_leaf =
        make_leaf(std::move(left_rows), depth + 1, left_grad, left_hess);
    const int right_leaf =
        make_leaf(std::move(right_rows), depth + 1, right_grad, right_hess);
    Node& parent = tree.nodes[static_cast<size_t>(node)];
    parent.feature = feature;
    parent.bin_threshold = bin;
    parent.left = leaves[static_cast<size_t>(left_leaf)].node;
    parent.right = leaves[static_cast<size_t>(right_leaf)].node;
    parent.value = 0.0;
    ++leaf_count;

    // The larger child can split whenever the smaller can (same depth,
    // more rows), so it is the one whose histograms are derived.
    PendingLeaf& left = leaves[static_cast<size_t>(left_leaf)];
    PendingLeaf& right = leaves[static_cast<size_t>(right_leaf)];
    const bool left_smaller = left.rows.size() <= right.rows.size();
    PendingLeaf& smaller = left_smaller ? left : right;
    PendingLeaf& larger = left_smaller ? right : left;
    if (leaf_count == config_.num_leaves || !can_split(larger)) {
      pool->Release(parent_hist);
      continue;
    }
    HOTSPOT_CHECK(parent_hist != nullptr);
    smaller.hist = pool->Acquire();
    larger.hist = parent_hist;
    evaluate(smaller, &larger);
  }
  for (PendingLeaf& leaf : leaves) pool->Release(leaf.hist);
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

  // Weighted prior. The fixed-point scale needs finite weights >= 0 with a
  // positive, finite sum: a NaN weight would turn every gradient NaN, and
  // rounding a NaN or an infinity to an integer is undefined.
  double weight_sum = 0.0;
  double positive_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    const double w = data.weights[static_cast<size_t>(i)];
    HOTSPOT_CHECK(!std::isnan(w)) << "GBDT training row " << i
                                  << " has a NaN weight";
    HOTSPOT_CHECK(!std::isinf(w)) << "GBDT training row " << i
                                  << " has an infinite weight (" << w << ")";
    HOTSPOT_CHECK(w >= 0.0) << "GBDT training row " << i
                            << " has a negative weight (" << w << ")";
    weight_sum += w;
    if (data.labels[static_cast<size_t>(i)] != 0.0f) positive_weight += w;
  }
  HOTSPOT_CHECK(weight_sum > 0.0)
      << "GBDT training weights sum to " << weight_sum << ", not > 0";
  HOTSPOT_CHECK(std::isfinite(weight_sum))
      << "GBDT training weights sum to " << weight_sum << ", not finite";
  double prior = std::clamp(positive_weight / weight_sum, 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(prior / (1.0 - prior));
  const double scale = FixedPointScale(weight_sum);
  const double inv_scale = 1.0 / scale;

  BinTiles bins(n, num_features_);
  std::vector<int> representatives;
  std::vector<int> num_bins;
  {
    HOTSPOT_SPAN("gbdt/bin_build");
    representatives = binner_.Fit(data.features, config_.max_bins, &bins);
    num_bins = HistogramBins(bins, binner_, representatives);
    if (ctx != nullptr) {
      ctx->metrics().counter("gbdt/bin_builds").Increment();
    }
  }
  const HistogramLayout layout(num_bins);
  HistogramPool pool(layout.size());

  std::vector<double> scores(static_cast<size_t>(n), base_score_);
  std::vector<int64_t> gradients(2 * static_cast<size_t>(n));

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
      gradients[2 * static_cast<size_t>(i)] = std::llround(w * (p - y) * scale);
      gradients[2 * static_cast<size_t>(i) + 1] =
          std::llround(w * std::max(p * (1.0 - p), 1e-9) * scale);
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
      tree = BuildTree(bins, layout, representatives, gradients, inv_scale,
                       &pool, rows, features);
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
