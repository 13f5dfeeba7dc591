#ifndef HOTSPOT_ML_GBDT_H_
#define HOTSPOT_ML_GBDT_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "tensor/storage.h"

namespace hotspot::serialize {
struct ModelAccess;
}  // namespace hotspot::serialize

namespace hotspot::ml {

/// Gradient-boosted decision trees with histogram split finding and
/// leaf-wise growth (the LightGBM recipe), binary logistic loss.
///
/// Each iteration's gradients and hessians are quantized to int64 at one
/// power-of-two scale, and every histogram, leaf sum and leaf value is
/// accumulated from those integers. A split builds the histograms of its
/// smaller child and takes the larger child's as parent minus smaller;
/// since integer sums are exact, the trained bits depend only on the data
/// and the config. Training weights must be finite and >= 0 with a
/// positive, finite sum.
///
/// This model is an *extension* relative to the paper (which evaluates
/// CART and random forests); it is motivated by the boosted-tree
/// forecasting work the paper cites ([34]) and exercised by the ablation
/// benches.
struct GbdtConfig {
  int num_iterations = 80;
  double learning_rate = 0.1;
  int num_leaves = 31;
  int max_depth = 8;          ///< 0 = unlimited
  int max_bins = 64;          ///< histogram bins per feature (<= 255)
  double lambda_l2 = 1.0;     ///< L2 regularization on leaf values
  double min_child_hessian = 1e-3;
  double feature_fraction = 1.0;  ///< per-tree feature subsample
  double bagging_fraction = 1.0;  ///< per-tree row subsample (no replacement)
  uint64_t seed = 1;
};

/// The bins of an n x d training matrix, stored feature-tiled for the
/// histogram pass: features are grouped into tiles of kWidth, and each
/// tile holds all n rows contiguously (row r at r * width(t)), the last
/// tile partial. Together the tiles take exactly n x d bytes.
class BinTiles {
 public:
  static constexpr int kWidth = 32;

  /// Every bin unwritten, for FeatureBinner::Fit to fill.
  BinTiles(int rows, int features)
      : rows_(static_cast<size_t>(rows)),
        features_(features),
        bins_(rows_ * static_cast<size_t>(features)) {}

  int rows() const { return static_cast<int>(rows_); }
  int features() const { return features_; }
  int num_tiles() const { return (features_ + kWidth - 1) / kWidth; }
  int width(int tile) const {
    return std::min(kWidth, features_ - tile * kWidth);
  }
  /// Start of tile `tile`; every tile before it is kWidth wide.
  uint8_t* tile(int tile) {
    return bins_.data() + static_cast<size_t>(tile) * kWidth * rows_;
  }
  const uint8_t* tile(int tile) const {
    return bins_.data() + static_cast<size_t>(tile) * kWidth * rows_;
  }
  uint8_t At(int row, int feature) const {
    const int t = feature / kWidth;
    return tile(t)[static_cast<size_t>(row) * static_cast<size_t>(width(t)) +
                   static_cast<size_t>(feature % kWidth)];
  }

 private:
  size_t rows_;
  int features_;
  Storage<uint8_t> bins_;
};

/// Where each feature's bins lie in one leaf's gradient histograms. For
/// feature f and bin b, a histogram holds the fixed-point sums of the
/// gradients and the hessians of the leaf's rows in that bin, as the int64
/// pair at offset(f) + 2 * b. A feature given no bins has none.
class HistogramLayout {
 public:
  explicit HistogramLayout(const std::vector<int>& num_bins);

  /// int64 values in one leaf's histograms.
  size_t size() const { return offsets_.back(); }
  size_t offset(int feature) const {
    return offsets_[static_cast<size_t>(feature)];
  }
  int num_bins(int feature) const {
    return static_cast<int>((offsets_[static_cast<size_t>(feature) + 1] -
                             offsets_[static_cast<size_t>(feature)]) /
                            2);
  }

 private:
  std::vector<size_t> offsets_;  ///< one per feature, then the total
};

/// Zeroes the histograms of `features`, which must all lie in one tile,
/// then adds to each the pair (pairs[2 * i], pairs[2 * i + 1]) of every
/// rows[i] in that row's bin. The sums are integers, so they are exact and
/// independent of the order of `rows`.
void BuildHistograms(const BinTiles& bins, const HistogramLayout& layout,
                     std::span<const int> features, std::span<const int> rows,
                     const int64_t* pairs, int64_t* hist);

/// Subtracts `child`'s histograms of `features` from `parent`'s, which then
/// hold exactly the histograms of the parent's other child.
void SubtractHistograms(const HistogramLayout& layout,
                        std::span<const int> features, const int64_t* child,
                        int64_t* parent);

/// Groups the columns of `features` into classes of columns whose floats
/// are equal bit for bit in every row, and returns each column's class
/// representative: the lowest index in its class. -0 and +0 differ, and so
/// do NaNs with different payloads. One sweep hashes every column and one
/// more confirms each column against the first with its hash, so a column
/// that shares a hash but not its bits stays in a class of its own.
std::vector<int> ColumnRepresentatives(const Matrix<float>& features);

/// Quantile feature binner. Bin 0 is reserved for missing values; bins
/// 1..num_bins(f)-1 partition the finite range by the training quantiles.
class FeatureBinner {
 public:
  /// Builds thresholds from the training features and, when `bins` is
  /// given (sized like `features`), writes every training value's bin
  /// into it. Only each ColumnRepresentatives() class's representative is
  /// sorted, cut and binned; the other columns of its class get copies of
  /// its thresholds and bins, which are what they would compute. Returns
  /// the representatives.
  std::vector<int> Fit(const Matrix<float>& features, int max_bins,
                       BinTiles* bins = nullptr);

  /// Bin index of `value` for `feature` (0 for NaN).
  int Bin(int feature, float value) const;

  int num_features() const { return static_cast<int>(thresholds_.size()); }
  /// Total bins for `feature` (missing bin included).
  int NumBins(int feature) const;
  const std::vector<float>& Thresholds(int feature) const;

 private:
  friend struct ::hotspot::serialize::ModelAccess;

  /// thresholds_[f] sorted ascending; value <= thresholds_[f][b] falls in
  /// bin b+1.
  std::vector<std::vector<float>> thresholds_;
};

class Gbdt : public BinaryClassifier {
 public:
  explicit Gbdt(const GbdtConfig& config);

  void Fit(const Dataset& data) override;
  double PredictProba(const float* row) const override;
  std::vector<double> FeatureImportances() const override;

  /// Raw additive score before the sigmoid.
  double PredictRaw(const float* row) const;

  int num_trees() const { return static_cast<int>(trees_.size()); }
  /// Per-iteration training logloss (for convergence tests).
  const std::vector<double>& training_loss() const { return training_loss_; }

 private:
  friend struct ::hotspot::serialize::ModelAccess;
  friend class FlatForest;  ///< compiles trees_ + binner_ into SoA arrays

  struct Node {
    int feature = -1;     ///< -1 for leaves
    int bin_threshold = 0;  ///< go left when bin(value) <= bin_threshold
    int left = -1;
    int right = -1;
    double value = 0.0;   ///< leaf output (already shrunk)
  };
  struct Tree {
    std::vector<Node> nodes;
  };
  class HistogramPool;

  /// `gradients` holds every row's fixed-point (gradient, hessian) pair;
  /// `inv_scale` turns a fixed-point sum back into a double.
  /// `representatives` maps each feature to its column class's
  /// representative, the only member `layout` gives bins.
  Tree BuildTree(const BinTiles& bins, const HistogramLayout& layout,
                 const std::vector<int>& representatives,
                 const std::vector<int64_t>& gradients, double inv_scale,
                 HistogramPool* pool, const std::vector<int>& rows,
                 const std::vector<int>& features);

  GbdtConfig config_;
  FeatureBinner binner_;
  double base_score_ = 0.0;
  std::vector<Tree> trees_;
  std::vector<double> gain_importances_;
  std::vector<double> training_loss_;
  int num_features_ = 0;
};

/// Numerically stable logistic sigmoid.
double Sigmoid(double x);

}  // namespace hotspot::ml

#endif  // HOTSPOT_ML_GBDT_H_
