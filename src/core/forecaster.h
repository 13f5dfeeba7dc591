#ifndef HOTSPOT_CORE_FORECASTER_H_
#define HOTSPOT_CORE_FORECASTER_H_

#include <memory>
#include <string>
#include <vector>

#include "features/feature_tensor.h"
#include "features/handcrafted_features.h"
#include "features/percentile_features.h"
#include "features/raw_features.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "tensor/matrix.h"

namespace hotspot::serialize {
struct ForecastBundle;
}  // namespace hotspot::serialize

namespace hotspot::monitor {
struct BundleFingerprints;
}  // namespace hotspot::monitor

namespace hotspot {

/// The forecasting models of Table III, plus the GBDT extension.
enum class ModelKind {
  kRandom,
  kPersist,
  kAverage,
  kTrend,
  kTree,   ///< single CART on raw window features
  kRfRaw,  ///< RF-R: random forest on the raw window
  kRfF1,   ///< RF-F1: random forest on daily percentile features
  kRfF2,   ///< RF-F2: random forest on hand-crafted features
  kGbdt,   ///< extension: gradient-boosted trees on the raw window
};

const char* ModelName(ModelKind model);

/// The 8 models the paper sweeps (Table III), in paper order.
std::vector<ModelKind> PaperModels();

/// The two forecasting scenarios of Sec. IV-A.
enum class TargetKind { kBeHotSpot, kBecomeHotSpot };

const char* TargetName(TargetKind target);

/// One forecast request: model and the (t, h, w) coordinates of Table III.
/// Training uses windows ending at day t−h with labels at day t (Eq. 7);
/// prediction uses windows ending at day t, for the target day t+h
/// (Eq. 6).
struct ForecastConfig {
  ModelKind model = ModelKind::kAverage;
  int t = 52;  ///< current day
  int h = 1;   ///< prediction horizon in days (>= 1)
  int w = 7;   ///< past-window length in days (>= 1)
  /// Extension: pool training labels from this many target days to
  /// enlarge the training set. 1 = the paper's single-day setup (Eq. 7).
  int training_days = 1;
  /// Override of `training_days` for the single-Tree model (0 = same as
  /// training_days). The paper's Tree trains on one day (Eq. 7); exact
  /// CART split search over 80 % of the raw features scales poorly with
  /// pooled instances, so benches keep the Tree paper-faithful at 1.
  int tree_training_days = 0;
  /// Spacing between pooled target days: 1 pools consecutive days
  /// (t, t−1, ...); 7 pools same-weekday days (t, t−7, ...), which
  /// preserves the weekday alignment between window and target that the
  /// paper's single-day training has implicitly. When the window of an
  /// older pooled day would start before day 0, pooling stops early (at
  /// least the day t itself is always used).
  int training_day_stride = 1;
  /// Hyperparameters of the classifier models (paper defaults).
  ml::TreeConfig tree;
  ml::ForestConfig forest;
  ml::GbdtConfig gbdt;
  uint64_t seed = 99;
};

/// The target days a classifier of `config` pools its training labels
/// from, newest first: t, t − stride, t − 2·stride, ... for
/// `training_days` days (`tree_training_days` for a Tree when set),
/// stopping early at the first day whose h-delayed window would start
/// before day 0. Empty when day t's own window does not fit.
std::vector<int> PooledLabelDays(const ForecastConfig& config);

/// A forecast for all sectors at day t+h.
struct ForecastResult {
  ModelKind model = ModelKind::kAverage;
  std::vector<float> predictions;  ///< per-sector ranking score
  /// Flattened per-feature importances (classifier models; empty for
  /// baselines). Index semantics follow the model's extractor layout.
  std::vector<double> importances;
  int feature_dim = 0;
};

/// Runs the paper's forecasting methodology for one target variable.
/// Holds references to the inputs; they must outlive the forecaster.
class Forecaster {
 public:
  /// `target_labels` is Yᵈ for the "be a hot spot" task and the
  /// become-a-hot-spot matrix for the other scenario (both sectors x days).
  Forecaster(const features::FeatureTensor* features,
             const Matrix<float>* daily_scores,
             const Matrix<float>* target_labels);

  /// Produces predictions Ŷ_{:,t+h} for one configuration.
  ForecastResult Run(const ForecastConfig& config) const;

  /// Trains the classifier of `config` (a classifier ModelKind) and packs
  /// it with the feature-window spec into a servable bundle. Training uses
  /// the exact seed stream of Run(), so serving the bundle on windows
  /// ending at day t reproduces Run()'s predictions bit for bit. The
  /// bundle also carries the monitoring fingerprints: per-channel
  /// distribution sketches over the exact hour span the training windows
  /// covered, plus a sketch of the scores the trained classifier produces
  /// on the day-t windows (the reference the serving-side drift detector
  /// tests live traffic against). The caller fills in the bundle's score
  /// config (study-level state the forecaster never sees).
  std::unique_ptr<serialize::ForecastBundle> TrainBundle(
      const ForecastConfig& config) const;

  /// The extractor a classifier model uses (nullptr for baselines).
  const features::FeatureExtractor* ExtractorFor(ModelKind model) const;

  int num_sectors() const;
  int num_days() const { return target_labels_->cols(); }

  /// True labels of the target day (evaluation convenience).
  std::vector<float> LabelsAtDay(int day) const;

 private:
  /// The shared training path of Run() and TrainBundle(): builds the
  /// training set and fits the classifier of `config.model` with the
  /// deterministic per-(model, t, h, w) seed stream.
  std::unique_ptr<ml::BinaryClassifier> TrainClassifier(
      const ForecastConfig& config) const;
  /// Sketches the training-window input distributions (one per channel)
  /// and the trained classifier's day-t score distribution — the drift
  /// references TrainBundle packs into the bundle.
  std::unique_ptr<monitor::BundleFingerprints> BuildFingerprints(
      const ForecastConfig& config,
      const ml::BinaryClassifier& classifier) const;
  ml::Dataset BuildTrainingSet(const ForecastConfig& config,
                               const features::FeatureExtractor& extractor)
      const;
  Matrix<float> BuildPredictionRows(
      const ForecastConfig& config,
      const features::FeatureExtractor& extractor) const;

  const features::FeatureTensor* features_;
  const Matrix<float>* daily_scores_;
  const Matrix<float>* target_labels_;
  features::RawExtractor raw_extractor_;
  features::DailyPercentileExtractor percentile_extractor_;
  features::HandcraftedExtractor handcrafted_extractor_;
};

}  // namespace hotspot

#endif  // HOTSPOT_CORE_FORECASTER_H_
