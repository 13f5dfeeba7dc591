#include "ml/flat_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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
      // Unsigned indices: node ids and features are never negative here,
      // and 32-bit unsigned values widen to addresses for free.
      uint32_t node = static_cast<uint32_t>(view.roots[t]);
      for (int32_t packed = view.packed[node]; packed >= 0;
           packed = view.packed[node]) {
        const float value = row[static_cast<uint32_t>(packed) >> 1];
        const bool go_left = std::isnan(value)
                                 ? (packed & 1) != 0
                                 : value <= view.threshold[node];
        // A branch, not a select: a select puts the comparison on the
        // next node load's path (DESIGN §10).
        if (go_left) {
          node = static_cast<uint32_t>(view.left[node]);
        } else {
          node = static_cast<uint32_t>(view.left[node]) + 1;
        }
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

bool FlatForest::Avx512Supported() {
#if defined(__x86_64__) || defined(__i386__)
  return flat_detail::Avx512Compiled() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

int FlatForest::block_rows() const {
  static const bool avx512 =
      ChooseKernel() == FlatKernel::kAvx2 && Avx512Supported();
  return avx512 && max_tree_nodes_ <= flat_detail::kMaxRegisterTreeNodes
             ? kMaxBlockRows
             : flat_detail::kBlockRows;
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

template <typename Node, typename Value, typename Split>
void FlatForest::AppendTree(const std::vector<Node>& nodes,
                            const Value& value, const Split& split) {
  const int32_t base = static_cast<int32_t>(packed_.size());
  roots_.push_back(base);
  const auto grow = [this](size_t n) {
    const size_t size = packed_.size() + n;
    packed_.resize(size);
    threshold_.resize(size);
    left_.resize(size);
    leaf_value_.resize(size);
  };
  // Level-order copy with sibling pairs allocated adjacently, establishing
  // the right == left + 1 invariant every kernel relies on. work[w] maps
  // a source node index to its already-allocated flat slot.
  std::vector<std::pair<int32_t, int32_t>> work;
  work.reserve(nodes.size());
  work.emplace_back(0, base);
  grow(1);
  for (size_t w = 0; w < work.size(); ++w) {
    const auto [src, dst] = work[w];
    const size_t slot = static_cast<size_t>(dst);
    const Node& node = nodes[static_cast<size_t>(src)];
    leaf_value_[slot] = value(node);
    if (node.feature < 0) {
      packed_[slot] = -1;
      threshold_[slot] = 0.0f;
      left_[slot] = 0;
      continue;
    }
    const int32_t child = static_cast<int32_t>(packed_.size());
    grow(2);
    work.emplace_back(node.left, child);
    work.emplace_back(node.right, child + 1);
    bool miss_left = false;
    threshold_[slot] = split(node, &miss_left);
    packed_[slot] = (node.feature << 1) | (miss_left ? 1 : 0);
    left_[slot] = child;
  }
  max_tree_nodes_ = std::max(
      max_tree_nodes_, static_cast<int32_t>(packed_.size()) - base);
}

void FlatForest::AppendTree(const DecisionTree& tree) {
  HOTSPOT_CHECK(!tree.nodes_.empty()) << "FlatForest: tree is untrained";
  using Node = DecisionTree::Node;
  AppendTree(
      tree.nodes_,
      [](const Node& node) { return static_cast<double>(node.prob); },
      [](const Node& node, bool* miss_left) {
        // DecisionTree routes every missing value left.
        *miss_left = true;
        return node.threshold;
      });
}

void FlatForest::Reserve(size_t nodes, size_t trees) {
  packed_.reserve(nodes);
  threshold_.reserve(nodes);
  left_.reserve(nodes);
  leaf_value_.reserve(nodes);
  roots_.reserve(trees);
}

FlatForest FlatForest::Compile(const DecisionTree& tree) {
  FlatForest out;
  out.agg_ = Aggregation::kSingleTree;
  out.num_features_ = tree.num_features_;
  out.Reserve(tree.nodes_.size(), 1);
  out.AppendTree(tree);
  return out;
}

FlatForest FlatForest::Compile(const RandomForest& forest) {
  HOTSPOT_CHECK(!forest.trees_.empty()) << "FlatForest: forest is untrained";
  FlatForest out;
  out.agg_ = Aggregation::kForestMean;
  out.num_features_ = forest.num_features_;
  size_t nodes = 0;
  for (const auto& tree : forest.trees_) nodes += tree->nodes_.size();
  out.Reserve(nodes, forest.trees_.size());
  for (const auto& tree : forest.trees_) out.AppendTree(*tree);
  return out;
}

FlatForest FlatForest::Compile(const Gbdt& model) {
  HOTSPOT_CHECK(!model.trees_.empty()) << "FlatForest: Gbdt is untrained";
  FlatForest out;
  out.agg_ = Aggregation::kGbdtSigmoid;
  out.num_features_ = model.num_features_;
  out.base_score_ = model.base_score_;
  size_t nodes = 0;
  for (const auto& tree : model.trees_) nodes += tree.nodes.size();
  out.Reserve(nodes, model.trees_.size());
  using Node = Gbdt::Node;
  const auto value = [](const Node& node) { return node.value; };
  // Exact bin-space -> value-space split conversion. The scalar path goes
  // left when Bin(f, v) <= bt with Bin(v) = least b such that
  // v <= cuts[b], plus one (0 for NaN), so for cuts sorted ascending:
  //   bt <  0           : nothing goes left (NaN threshold, miss right)
  //   bt == 0           : only NaN goes left (bin 0 is the miss bin)
  //   1 <= bt <= #cuts  : NaN and v <= cuts[bt-1] go left
  //   bt >  #cuts       : everything goes left (+inf threshold)
  const auto split = [&model](const Node& node, bool* miss_left) {
    const std::vector<float>& cuts = model.binner_.Thresholds(node.feature);
    const int bt = node.bin_threshold;
    *miss_left = bt >= 0;
    if (bt <= 0) return std::numeric_limits<float>::quiet_NaN();
    if (bt <= static_cast<int>(cuts.size())) {
      return cuts[static_cast<size_t>(bt - 1)];
    }
    return std::numeric_limits<float>::infinity();
  };
  for (const auto& tree : model.trees_) {
    out.AppendTree(tree.nodes, value, split);
  }
  return out;
}

namespace {

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

bool FlatForest::operator==(const FlatForest& other) const {
  return agg_ == other.agg_ && num_features_ == other.num_features_ &&
         std::memcmp(&base_score_, &other.base_score_,
                     sizeof(base_score_)) == 0 &&
         SameBits(packed_, other.packed_) &&
         SameBits(threshold_, other.threshold_) &&
         SameBits(left_, other.left_) &&
         SameBits(leaf_value_, other.leaf_value_) &&
         SameBits(roots_, other.roots_);
}

flat_detail::FlatView FlatForest::View() const {
  flat_detail::FlatView view;
  view.packed = packed_.data();
  view.threshold = threshold_.data();
  view.left = left_.data();
  view.leaf_value = leaf_value_.data();
  view.roots = roots_.data();
  view.num_trees = static_cast<int32_t>(roots_.size());
  view.num_nodes = static_cast<int32_t>(packed_.size());
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
  // The vector kernel takes this forest's block width (block_rows());
  // a partial 16-row block steps down to an 8-row vector block and then
  // to the scalar kernel. Every decomposition yields identical scores —
  // out[i] depends only on row i.
  const int width =
      kernel == FlatKernel::kAvx2 ? block_rows() : flat_detail::kBlockRows;
  double acc[kMaxBlockRows];
  for (int begin = 0; begin < num_rows;) {
    int n = std::min(width, num_rows - begin);
    if (n < width && n > flat_detail::kBlockRows) {
      n = flat_detail::kBlockRows;
    }
    for (int r = 0; r < n; ++r) acc[r] = base_score_;
    const float* block = rows + static_cast<int64_t>(begin) * stride;
    if (kernel == FlatKernel::kAvx2 &&
        (n == width || n == flat_detail::kBlockRows)) {
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
