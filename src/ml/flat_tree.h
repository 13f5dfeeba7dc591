#ifndef HOTSPOT_ML_FLAT_TREE_H_
#define HOTSPOT_ML_FLAT_TREE_H_

#include <cstdint>
#include <vector>

#include "ml/dataset.h"

namespace hotspot::ml {

class DecisionTree;
class Gbdt;
class RandomForest;

/// Traversal kernel for FlatForest::PredictBatch. kAvx2 requires the
/// HOTSPOT_SIMD build option *and* a runtime CPUID check; requesting it on
/// a host without AVX2 silently falls back to the scalar kernel (the two
/// are bitwise interchangeable, so the fallback is unobservable in the
/// scores).
enum class FlatKernel { kScalar, kAvx2 };

namespace flat_detail {

/// Rows per traversal block: one AVX2 register of row lanes. Blocking is
/// purely a batching detail — each row's score is computed independently,
/// so results are bitwise identical for any block decomposition.
inline constexpr int kBlockRows = 8;

/// Largest tree the AVX-512 kernel keeps in registers: two zmm registers
/// hold 32 int32 table entries, addressed by one vpermi2d.
inline constexpr int32_t kMaxRegisterTreeNodes = 32;

/// Raw-pointer view over the SoA node arrays: the ABI shared between the
/// portable kernel in flat_tree.cc and the AVX2 translation unit
/// (flat_tree_simd.cc, compiled with -mavx2 only under HOTSPOT_SIMD).
/// Tree t spans nodes roots[t] .. roots[t + 1] (num_nodes for the last).
struct FlatView {
  /// (feature << 1) | miss_bit for internal nodes, -1 for leaves: one load
  /// gives a kernel the feature, the missing-value direction (bit 0 set:
  /// NaN routes left) and leaf-ness.
  const int32_t* packed = nullptr;
  const float* threshold = nullptr;
  /// Absolute node index of the left child, > self; the right child is
  /// always left + 1 (sibling pair).
  const int32_t* left = nullptr;
  const double* leaf_value = nullptr;
  const int32_t* roots = nullptr;
  int32_t num_trees = 0;
  int32_t num_nodes = 0;
};

/// True when this binary contains the AVX2 kernel (HOTSPOT_SIMD=ON and the
/// compiler accepted -mavx2).
bool Avx2Compiled();
/// True when this binary contains the AVX-512 block kernel, which rides
/// along with the AVX2 one on x86 GCC and Clang builds.
bool Avx512Compiled();

/// For every row r < n (n <= kBlockRows), adds the leaf values of all
/// trees — visited in tree order — into acc[r]. `stride` is the float
/// distance between consecutive rows.
void TraverseBlockScalar(const FlatView& view, const float* rows, int n,
                         int stride, double* acc);
/// Vector version of TraverseBlockScalar; requires Avx2Compiled() and
/// n == kBlockRows, or n == 2 * kBlockRows when the forest's block_rows()
/// says so (the AVX-512 kernel is live and every tree fits its registers).
/// Bitwise identical to the scalar kernel: traversal is pure comparisons
/// and the accumulation order per lane is unchanged.
void TraverseBlockAvx2(const FlatView& view, const float* rows, int n,
                       int stride, double* acc);

}  // namespace flat_detail

/// Trained tree ensembles (DecisionTree / RandomForest / Gbdt) re-compiled
/// into contiguous structure-of-arrays node storage for batched, branchless
/// traversal — the LightGBM storage-vs-traversal split. The pointer-walking
/// models stay the single source of truth for training and (de)serialization;
/// a FlatForest is a derived, deterministic artifact of one of them.
///
/// Contract: PredictBatch is bitwise identical to the source model's
/// PredictProba for every input (including NaN payloads), for every
/// kernel, at any HOTSPOT_NUM_THREADS and any batch decomposition.
/// The GBDT bin-space rule `Bin(f, v) <= bin_threshold` is compiled to the
/// exact float comparison `v <= cuts[bin_threshold - 1]` plus a NaN
/// default-direction flag, so no traversal re-bins values (see DESIGN §10
/// for the mapping table).
class FlatForest {
 public:
  /// How per-tree leaf sums aggregate into the final score; mirrors the
  /// source model's PredictProba exactly.
  enum class Aggregation : uint8_t {
    kSingleTree = 0,   ///< score = leaf probability
    kForestMean = 1,   ///< score = sum(tree probs) / num_trees
    kGbdtSigmoid = 2,  ///< score = Sigmoid(base_score + sum(leaf values))
  };

  FlatForest() = default;

  /// Compiles `model`, dispatching on its concrete type (DecisionTree,
  /// RandomForest or Gbdt). Check-fails for unknown classifier types or
  /// untrained models.
  static FlatForest Compile(const BinaryClassifier& model);
  static FlatForest Compile(const DecisionTree& tree);
  static FlatForest Compile(const RandomForest& forest);
  static FlatForest Compile(const Gbdt& model);

  /// Scores `num_rows` rows (each `stride` floats apart, at least
  /// num_features() wide) into out[0..num_rows). Safe to call concurrently;
  /// out[i] depends only on row i.
  void PredictBatch(const float* rows, int num_rows, int stride,
                    double* out) const {
    PredictBatch(rows, num_rows, stride, out, ChooseKernel());
  }
  void PredictBatch(const float* rows, int num_rows, int stride, double* out,
                    FlatKernel kernel) const;

  /// Single-row convenience (row must be num_features() wide).
  double PredictOne(const float* row) const;

  /// Bit-for-bit equality of the compiled arrays: two compiles of one
  /// model compare equal. Not defaulted — a GBDT split that sends only
  /// missing values left compiles to a NaN threshold, which float ==
  /// would call unequal to itself.
  bool operator==(const FlatForest& other) const;

  bool empty() const { return roots_.empty(); }
  int num_trees() const { return static_cast<int>(roots_.size()); }
  int num_nodes() const { return static_cast<int>(packed_.size()); }
  int num_features() const { return num_features_; }
  Aggregation aggregation() const { return agg_; }

  /// Rows PredictBatch's default kernel takes per traversal block:
  /// 2 * kBlockRows when the AVX-512 kernel is live and every tree fits
  /// its registers, kBlockRows otherwise. Never above kMaxBlockRows.
  /// Blocking is a batching detail, so the width never changes scores.
  int block_rows() const;
  static constexpr int kMaxBlockRows = 2 * flat_detail::kBlockRows;

  /// True when the AVX2 kernel is compiled in AND the host CPU reports
  /// AVX2 support (runtime CPUID).
  static bool SimdSupported();
  /// True when the AVX-512 block kernel is compiled in AND the host CPU
  /// reports AVX-512F.
  static bool Avx512Supported();
  /// True when the AVX2 kernel is compiled into this binary.
  static bool SimdCompiled();
  /// Kernel PredictBatch uses by default: AVX2 when supported (decided from
  /// CPUID once per process), scalar otherwise.
  static FlatKernel ChooseKernel();

 private:
  flat_detail::FlatView View() const;
  double Aggregate(double acc) const;
  /// Allocates every node array once, for `nodes` nodes (the source
  /// model's node count: each node of a trained tree is reachable, so
  /// the compile fills them exactly). Arrays grown node by node served
  /// measurably slower and took more memory (DESIGN §10).
  void Reserve(size_t nodes, size_t trees);
  /// The one compile loop: appends a tree's `nodes` (a DecisionTree's or a
  /// GBDT tree's) in level order with sibling pairs adjacent. `value(node)`
  /// gives a node's leaf value; `split(node, &miss_left)` an internal
  /// node's float threshold and whether NaN routes left.
  template <typename Node, typename Value, typename Split>
  void AppendTree(const std::vector<Node>& nodes, const Value& value,
                  const Split& split);
  /// Appends one DecisionTree (shared by the tree and forest compilers).
  void AppendTree(const DecisionTree& tree);

  Aggregation agg_ = Aggregation::kSingleTree;
  int num_features_ = 0;
  double base_score_ = 0.0;  ///< GBDT prior; 0 otherwise
  /// Largest per-tree node count, recorded at compile: block_rows() sends
  /// 16-row blocks to the AVX-512 kernel only when every tree fits.
  int32_t max_tree_nodes_ = 0;

  // SoA node arrays, indexed by absolute node id, laid out level-order per
  // tree with sibling pairs adjacent: the right child is left + 1 always,
  // so no kernel loads it, and children always point strictly forward
  // (left > self), which bounds every traversal. See FlatView.
  std::vector<int32_t> packed_;  ///< -1 at a leaf
  std::vector<float> threshold_;
  std::vector<int32_t> left_;
  std::vector<double> leaf_value_;
  std::vector<int32_t> roots_;  ///< root node id per tree, in tree order
};

}  // namespace hotspot::ml

#endif  // HOTSPOT_ML_FLAT_TREE_H_
