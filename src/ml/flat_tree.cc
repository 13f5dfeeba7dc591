#include "ml/flat_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "util/logging.h"

namespace hotspot::ml {

namespace flat_detail {

void TraverseBlockScalar(const FlatView& view, const float* rows, int n,
                         int stride, double* acc) {
  for (int r = 0; r < n; ++r) {
    const float* row = rows + static_cast<int64_t>(r) * stride;
    for (int32_t t = 0; t < view.num_trees; ++t) {
      int32_t node = view.roots[t];
      while (view.feature[node] >= 0) {
        const float value = row[view.feature[node]];
        const bool go_left = std::isnan(value)
                                 ? view.miss_left[node] != 0
                                 : value <= view.threshold[node];
        node = go_left ? view.left[node] : view.right[node];
      }
      acc[r] += view.leaf_value[node];
    }
  }
}

}  // namespace flat_detail

bool FlatForest::SimdCompiled() { return flat_detail::Avx2Compiled(); }

bool FlatForest::SimdSupported() {
#if defined(__x86_64__) || defined(__i386__)
  return flat_detail::Avx2Compiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

FlatKernel FlatForest::ChooseKernel() {
  static const FlatKernel kernel =
      SimdSupported() ? FlatKernel::kAvx2 : FlatKernel::kScalar;
  return kernel;
}

FlatForest FlatForest::Compile(const BinaryClassifier& model) {
  if (const auto* gbdt = dynamic_cast<const Gbdt*>(&model)) {
    return Compile(*gbdt);
  }
  if (const auto* forest = dynamic_cast<const RandomForest*>(&model)) {
    return Compile(*forest);
  }
  if (const auto* tree = dynamic_cast<const DecisionTree*>(&model)) {
    return Compile(*tree);
  }
  HOTSPOT_CHECK(false) << "FlatForest: classifier type is not compilable";
  return FlatForest{};
}

void FlatForest::AppendTree(const DecisionTree& tree, FlatForest* out) {
  HOTSPOT_CHECK(!tree.nodes_.empty()) << "FlatForest: tree is untrained";
  const int32_t base = static_cast<int32_t>(out->feature_.size());
  out->roots_.push_back(base);
  const auto grow = [out](size_t n) {
    const size_t size = out->feature_.size() + n;
    out->feature_.resize(size);
    out->threshold_.resize(size);
    out->miss_left_.resize(size);
    out->left_.resize(size);
    out->right_.resize(size);
    out->leaf_value_.resize(size);
  };
  // Level-order copy with sibling pairs allocated adjacently, establishing
  // the right == left + 1 invariant the AVX2 kernel relies on. work[w] maps
  // a source node index to its already-allocated flat slot.
  std::vector<std::pair<int32_t, int32_t>> work;
  work.reserve(tree.nodes_.size());
  work.emplace_back(0, base);
  grow(1);
  for (size_t w = 0; w < work.size(); ++w) {
    const auto [src, dst] = work[w];
    const size_t slot = static_cast<size_t>(dst);
    const auto& node = tree.nodes_[static_cast<size_t>(src)];
    const bool leaf = node.feature < 0;
    const int32_t child = static_cast<int32_t>(out->feature_.size());
    if (!leaf) {
      grow(2);
      work.emplace_back(node.left, child);
      work.emplace_back(node.right, child + 1);
    }
    out->feature_[slot] = leaf ? -1 : node.feature;
    out->threshold_[slot] = leaf ? 0.0f : node.threshold;
    // DecisionTree routes every missing value left.
    out->miss_left_[slot] = leaf ? 0 : -1;
    out->left_[slot] = leaf ? 0 : child;
    out->right_[slot] = leaf ? 0 : child + 1;
    out->leaf_value_[slot] = static_cast<double>(node.prob);
  }
}

FlatForest FlatForest::Compile(const DecisionTree& tree) {
  FlatForest out;
  out.agg_ = Aggregation::kSingleTree;
  out.num_features_ = tree.num_features_;
  AppendTree(tree, &out);
  out.RebuildPacked();
  return out;
}

FlatForest FlatForest::Compile(const RandomForest& forest) {
  HOTSPOT_CHECK(!forest.trees_.empty()) << "FlatForest: forest is untrained";
  FlatForest out;
  out.agg_ = Aggregation::kForestMean;
  out.num_features_ = forest.num_features_;
  for (const auto& tree : forest.trees_) AppendTree(*tree, &out);
  out.RebuildPacked();
  return out;
}

FlatForest FlatForest::Compile(const Gbdt& model) {
  HOTSPOT_CHECK(!model.trees_.empty()) << "FlatForest: Gbdt is untrained";
  FlatForest out;
  out.agg_ = Aggregation::kGbdtSigmoid;
  out.num_features_ = model.num_features_;
  out.base_score_ = model.base_score_;

  const auto grow = [&out](size_t n) {
    const size_t size = out.feature_.size() + n;
    out.feature_.resize(size);
    out.threshold_.resize(size);
    out.miss_left_.resize(size);
    out.left_.resize(size);
    out.right_.resize(size);
    out.leaf_value_.resize(size);
  };
  for (const auto& tree : model.trees_) {
    const int32_t base = static_cast<int32_t>(out.feature_.size());
    out.roots_.push_back(base);
    // Same level-order, adjacent-sibling layout as AppendTree (see the
    // right == left + 1 invariant there).
    std::vector<std::pair<int32_t, int32_t>> work;
    work.reserve(tree.nodes.size());
    work.emplace_back(0, base);
    grow(1);
    for (size_t w = 0; w < work.size(); ++w) {
      const auto [src, dst] = work[w];
      const size_t slot = static_cast<size_t>(dst);
      const auto& node = tree.nodes[static_cast<size_t>(src)];
      const bool leaf = node.feature < 0;
      const int32_t child = static_cast<int32_t>(out.feature_.size());
      if (!leaf) {
        grow(2);
        work.emplace_back(node.left, child);
        work.emplace_back(node.right, child + 1);
      }
      out.feature_[slot] = leaf ? -1 : node.feature;
      out.left_[slot] = leaf ? 0 : child;
      out.right_[slot] = leaf ? 0 : child + 1;
      out.leaf_value_[slot] = node.value;
      if (leaf) {
        out.threshold_[slot] = 0.0f;
        out.miss_left_[slot] = 0;
        continue;
      }
      // Exact bin-space -> value-space split conversion. The scalar path
      // goes left when Bin(f, v) <= bt with Bin(v) = least b such that
      // v <= cuts[b], plus one (0 for NaN), so for cuts sorted ascending:
      //   bt <  0           : nothing goes left (NaN threshold, miss right)
      //   bt == 0           : only NaN goes left (bin 0 is the miss bin)
      //   1 <= bt <= #cuts  : NaN and v <= cuts[bt-1] go left
      //   bt >  #cuts       : everything goes left (+inf threshold)
      const std::vector<float>& cuts =
          model.binner_.Thresholds(node.feature);
      const int bt = node.bin_threshold;
      if (bt < 0) {
        out.threshold_[slot] = std::numeric_limits<float>::quiet_NaN();
        out.miss_left_[slot] = 0;
      } else if (bt == 0) {
        out.threshold_[slot] = std::numeric_limits<float>::quiet_NaN();
        out.miss_left_[slot] = -1;
      } else if (bt <= static_cast<int>(cuts.size())) {
        out.threshold_[slot] = cuts[static_cast<size_t>(bt - 1)];
        out.miss_left_[slot] = -1;
      } else {
        out.threshold_[slot] = std::numeric_limits<float>::infinity();
        out.miss_left_[slot] = -1;
      }
    }
  }
  out.RebuildPacked();
  return out;
}

void FlatForest::RebuildPacked() {
  packed_.resize(feature_.size());
  for (size_t i = 0; i < feature_.size(); ++i) {
    packed_[i] = feature_[i] < 0
                     ? -1
                     : (feature_[i] << 1) | (miss_left_[i] != 0 ? 1 : 0);
  }
}

flat_detail::FlatView FlatForest::View() const {
  flat_detail::FlatView view;
  view.feature = feature_.data();
  view.threshold = threshold_.data();
  view.miss_left = miss_left_.data();
  view.left = left_.data();
  view.right = right_.data();
  view.packed = packed_.data();
  view.leaf_value = leaf_value_.data();
  view.roots = roots_.data();
  view.num_trees = static_cast<int32_t>(roots_.size());
  view.num_nodes = static_cast<int32_t>(feature_.size());
  // Tree spans from consecutive roots; compiled layouts are always
  // contiguous in root order, but a hand-built forest might not be — then
  // the register-resident AVX-512 path is simply ineligible.
  int32_t max_tree_nodes = 0;
  bool contiguous = !roots_.empty() && roots_.front() == 0;
  for (size_t t = 0; contiguous && t < roots_.size(); ++t) {
    const int32_t end =
        t + 1 < roots_.size() ? roots_[t + 1] : view.num_nodes;
    if (end <= roots_[t]) {
      contiguous = false;
      break;
    }
    max_tree_nodes = std::max(max_tree_nodes, end - roots_[t]);
  }
  view.max_tree_nodes =
      contiguous ? max_tree_nodes : std::numeric_limits<int32_t>::max();
  return view;
}

double FlatForest::Aggregate(double acc) const {
  switch (agg_) {
    case Aggregation::kSingleTree:
      return acc;
    case Aggregation::kForestMean:
      return acc / static_cast<double>(num_trees());
    case Aggregation::kGbdtSigmoid:
      return Sigmoid(acc);
  }
  HOTSPOT_CHECK(false) << "FlatForest: invalid aggregation";
  return acc;
}

void FlatForest::PredictBatch(const float* rows, int num_rows, int stride,
                              double* out, FlatKernel kernel) const {
  HOTSPOT_CHECK(!empty()) << "FlatForest::PredictBatch before Compile";
  if (num_rows <= 0) return;
  HOTSPOT_CHECK(rows != nullptr);
  HOTSPOT_CHECK(out != nullptr);
  HOTSPOT_CHECK_GE(stride, num_features_);
  // Graceful runtime fallback: the kernels are bitwise interchangeable.
  if (kernel == FlatKernel::kAvx2 && !SimdSupported()) {
    kernel = FlatKernel::kScalar;
  }
  const flat_detail::FlatView view = View();
  // The vector kernel takes double-width (16-row) blocks when the AVX-512
  // upgrade is live; partial blocks step down to 8-row vector blocks and
  // then to the scalar kernel. Every decomposition yields identical
  // scores — out[i] depends only on row i.
  const int simd_rows = kernel == FlatKernel::kAvx2
                            ? flat_detail::SimdBlockRows()
                            : flat_detail::kBlockRows;
  double acc[2 * flat_detail::kBlockRows];
  for (int begin = 0; begin < num_rows;) {
    int n = std::min(simd_rows, num_rows - begin);
    if (kernel == FlatKernel::kAvx2 && n < simd_rows &&
        n > flat_detail::kBlockRows) {
      n = flat_detail::kBlockRows;
    }
    for (int r = 0; r < n; ++r) acc[r] = base_score_;
    const float* block = rows + static_cast<int64_t>(begin) * stride;
    if (kernel == FlatKernel::kAvx2 &&
        (n == simd_rows || n == flat_detail::kBlockRows)) {
      flat_detail::TraverseBlockAvx2(view, block, n, stride, acc);
    } else {
      flat_detail::TraverseBlockScalar(view, block, n, stride, acc);
    }
    for (int r = 0; r < n; ++r) out[begin + r] = Aggregate(acc[r]);
    begin += n;
  }
}

double FlatForest::PredictOne(const float* row) const {
  double out = 0.0;
  PredictBatch(row, 1, num_features_, &out);
  return out;
}

}  // namespace hotspot::ml
