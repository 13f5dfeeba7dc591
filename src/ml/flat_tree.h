#ifndef HOTSPOT_ML_FLAT_TREE_H_
#define HOTSPOT_ML_FLAT_TREE_H_

#include <cstdint>
#include <vector>

#include "ml/dataset.h"

namespace hotspot::serialize {
struct ModelAccess;
}  // namespace hotspot::serialize

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

/// Raw-pointer view over the SoA node arrays: the ABI shared between the
/// portable kernels in flat_tree.cc and the AVX2 translation unit
/// (flat_tree_simd.cc, compiled with -mavx2 only under HOTSPOT_SIMD).
struct FlatView {
  const int32_t* feature = nullptr;    ///< -1 marks a leaf
  const float* threshold = nullptr;
  const int32_t* miss_left = nullptr;  ///< all-ones mask: NaN routes left
  const int32_t* left = nullptr;       ///< absolute node index, > self
  const int32_t* right = nullptr;      ///< always left + 1 (sibling pair)
  /// (feature << 1) | miss_bit for internal nodes, -1 for leaves: lets the
  /// AVX2 kernel recover feature, missing-direction and leaf-ness from a
  /// single gather. Derived from the arrays above, never serialized.
  const int32_t* packed = nullptr;
  const double* leaf_value = nullptr;
  const int32_t* roots = nullptr;
  int32_t num_trees = 0;
  int32_t num_nodes = 0;
  /// Largest per-tree node count when trees sit contiguously in root order
  /// (the compiler's layout — tree t spans roots[t]..roots[t+1]);
  /// INT32_MAX when the spans cannot be derived. The AVX-512 kernel keeps
  /// a whole tree in registers when this is at most 32.
  int32_t max_tree_nodes = 0;
};

/// True when this binary contains the AVX2 kernel (HOTSPOT_SIMD=ON and the
/// compiler accepted -mavx2).
bool Avx2Compiled();

/// Rows the vector kernel prefers per traversal block at runtime:
/// 2 * kBlockRows when the AVX-512 upgrade is compiled in and the host CPU
/// reports AVX-512F, kBlockRows otherwise. Blocking is a batching detail
/// (see kBlockRows), so the choice never changes scores.
int SimdBlockRows();

/// For every row r < n (n <= kBlockRows), adds the leaf values of all
/// trees — visited in tree order — into acc[r]. `stride` is the float
/// distance between consecutive rows.
void TraverseBlockScalar(const FlatView& view, const float* rows, int n,
                         int stride, double* acc);
/// Vector version of TraverseBlockScalar; requires Avx2Compiled() and
/// n == kBlockRows, or n == 2 * kBlockRows when SimdBlockRows() says the
/// AVX-512 upgrade is live. Bitwise identical to the scalar kernel:
/// traversal is pure comparisons and the accumulation order per lane is
/// unchanged.
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

  bool empty() const { return roots_.empty(); }
  int num_trees() const { return static_cast<int>(roots_.size()); }
  int num_nodes() const { return static_cast<int>(feature_.size()); }
  int num_features() const { return num_features_; }
  Aggregation aggregation() const { return agg_; }

  /// True when the AVX2 kernel is compiled in AND the host CPU reports
  /// AVX2 support (runtime CPUID).
  static bool SimdSupported();
  /// True when the AVX2 kernel is compiled into this binary.
  static bool SimdCompiled();
  /// Kernel PredictBatch uses by default: AVX2 when supported (decided from
  /// CPUID once per process), scalar otherwise.
  static FlatKernel ChooseKernel();

 private:
  friend struct ::hotspot::serialize::ModelAccess;

  flat_detail::FlatView View() const;
  double Aggregate(double acc) const;
  /// Rebuilds packed_ from feature_/miss_left_; must run after compiling
  /// or decoding the node arrays.
  void RebuildPacked();
  /// Appends one DecisionTree as a flat tree (shared by the tree and
  /// forest compilers).
  static void AppendTree(const DecisionTree& tree, FlatForest* out);

  Aggregation agg_ = Aggregation::kSingleTree;
  int num_features_ = 0;
  double base_score_ = 0.0;  ///< GBDT prior; 0 otherwise

  // SoA node arrays, indexed by absolute node id, laid out level-order per
  // tree with sibling pairs adjacent: right == left + 1 always, so the
  // AVX2 kernel derives the right child from the left-child gather, and
  // children always point strictly forward (left/right > self), which
  // bounds every traversal.
  std::vector<int32_t> feature_;
  std::vector<float> threshold_;
  std::vector<int32_t> miss_left_;  ///< -1 (all-ones) or 0, blend-ready
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  std::vector<int32_t> packed_;  ///< see FlatView::packed; derived
  std::vector<double> leaf_value_;
  std::vector<int32_t> roots_;  ///< root node id per tree, in tree order
};

}  // namespace hotspot::ml

#endif  // HOTSPOT_ML_FLAT_TREE_H_
