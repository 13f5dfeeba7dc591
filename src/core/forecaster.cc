#include "core/forecaster.h"

#include "core/baselines.h"
#include "features/window.h"
#include "monitor/fingerprint.h"
#include "obs/pipeline_context.h"
#include "serialize/bundle.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hotspot {

const char* ModelName(ModelKind model) {
  switch (model) {
    case ModelKind::kRandom:
      return "Random";
    case ModelKind::kPersist:
      return "Persist";
    case ModelKind::kAverage:
      return "Average";
    case ModelKind::kTrend:
      return "Trend";
    case ModelKind::kTree:
      return "Tree";
    case ModelKind::kRfRaw:
      return "RF-R";
    case ModelKind::kRfF1:
      return "RF-F1";
    case ModelKind::kRfF2:
      return "RF-F2";
    case ModelKind::kGbdt:
      return "GBDT";
  }
  return "unknown";
}

std::vector<ModelKind> PaperModels() {
  return {ModelKind::kRandom, ModelKind::kPersist, ModelKind::kAverage,
          ModelKind::kTrend,  ModelKind::kTree,    ModelKind::kRfRaw,
          ModelKind::kRfF1,   ModelKind::kRfF2};
}

std::vector<int> PooledLabelDays(const ForecastConfig& config) {
  HOTSPOT_CHECK_GE(config.training_days, 1);
  HOTSPOT_CHECK_GE(config.training_day_stride, 1);
  const int days = config.model == ModelKind::kTree &&
                           config.tree_training_days > 0
                       ? config.tree_training_days
                       : config.training_days;
  std::vector<int> label_days;
  for (int pooled = 0; pooled < days; ++pooled) {
    const int label_day = config.t - pooled * config.training_day_stride;
    if (label_day - config.h - config.w < 0) break;
    label_days.push_back(label_day);
  }
  return label_days;
}

const char* TargetName(TargetKind target) {
  switch (target) {
    case TargetKind::kBeHotSpot:
      return "be_hot_spot";
    case TargetKind::kBecomeHotSpot:
      return "become_hot_spot";
  }
  return "unknown";
}

Forecaster::Forecaster(const features::FeatureTensor* features,
                       const Matrix<float>* daily_scores,
                       const Matrix<float>* target_labels)
    : features_(features), daily_scores_(daily_scores),
      target_labels_(target_labels) {
  HOTSPOT_CHECK(features != nullptr);
  HOTSPOT_CHECK(daily_scores != nullptr);
  HOTSPOT_CHECK(target_labels != nullptr);
  HOTSPOT_CHECK_EQ(features->num_sectors(), daily_scores->rows());
  HOTSPOT_CHECK_EQ(features->num_sectors(), target_labels->rows());
  HOTSPOT_CHECK_EQ(daily_scores->cols(), target_labels->cols());
}

int Forecaster::num_sectors() const { return features_->num_sectors(); }

std::vector<float> Forecaster::LabelsAtDay(int day) const {
  HOTSPOT_CHECK(day >= 0 && day < target_labels_->cols());
  std::vector<float> labels(static_cast<size_t>(num_sectors()));
  for (int i = 0; i < num_sectors(); ++i) {
    float value = target_labels_->At(i, day);
    labels[static_cast<size_t>(i)] = IsMissing(value) ? 0.0f : value;
  }
  return labels;
}

const features::FeatureExtractor* Forecaster::ExtractorFor(
    ModelKind model) const {
  switch (model) {
    case ModelKind::kTree:
    case ModelKind::kRfRaw:
    case ModelKind::kGbdt:
      return &raw_extractor_;
    case ModelKind::kRfF1:
      return &percentile_extractor_;
    case ModelKind::kRfF2:
      return &handcrafted_extractor_;
    default:
      return nullptr;
  }
}

ml::Dataset Forecaster::BuildTrainingSet(
    const ForecastConfig& config,
    const features::FeatureExtractor& extractor) const {
  const int n = num_sectors();
  const int channels = features_->num_channels();
  const int dim = extractor.OutputDim(config.w, channels);

  // Day t's window always fits, which Run() checks.
  const std::vector<int> label_days = PooledLabelDays(config);
  HOTSPOT_CHECK(!label_days.empty());
  const int rows = n * static_cast<int>(label_days.size());

  HOTSPOT_SPAN("forecast/build_training_set");
  ml::Dataset data;
  data.features = Matrix<float>(rows, dim, kUninitialized);
  data.labels.resize(static_cast<size_t>(rows));

  for (int label_day : label_days) {
    HOTSPOT_CHECK_LT(label_day, target_labels_->cols());
  }
  // Parallel over (pooled day, sector) pairs; each pair fills exactly one
  // output row, with per-invocation scratch (the extractors are stateless).
  util::ParallelFor(0, rows, [&](int64_t out_row) {
    const int day_index = static_cast<int>(out_row / n);
    const int i = static_cast<int>(out_row % n);
    const int label_day = label_days[static_cast<size_t>(day_index)];
    const int window_end = label_day - config.h;
    Matrix<float> window =
        features::ExtractWindow(*features_, i, window_end, config.w);
    std::vector<float> row;
    extractor.Extract(window, &row);
    HOTSPOT_CHECK_EQ(static_cast<int>(row.size()), dim);
    float* dst = data.features.Row(static_cast<int>(out_row));
    for (int c = 0; c < dim; ++c) dst[c] = row[static_cast<size_t>(c)];
    float label = target_labels_->At(i, label_day);
    data.labels[static_cast<size_t>(out_row)] =
        (!IsMissing(label) && label != 0.0f) ? 1.0f : 0.0f;
  });
  data.weights = ml::BalancedWeights(data.labels);
  return data;
}

Matrix<float> Forecaster::BuildPredictionRows(
    const ForecastConfig& config,
    const features::FeatureExtractor& extractor) const {
  const int n = num_sectors();
  const int channels = features_->num_channels();
  const int dim = extractor.OutputDim(config.w, channels);
  HOTSPOT_SPAN("forecast/build_prediction_rows");
  Matrix<float> rows(n, dim, kUninitialized);
  // Parallel over sectors; sector i only fills row i.
  util::ParallelFor(0, n, [&](int64_t i64) {
    const int i = static_cast<int>(i64);
    Matrix<float> window =
        features::ExtractWindow(*features_, i, config.t, config.w);
    std::vector<float> row;
    extractor.Extract(window, &row);
    float* dst = rows.Row(i);
    for (int c = 0; c < dim; ++c) dst[c] = row[static_cast<size_t>(c)];
  });
  return rows;
}

std::unique_ptr<ml::BinaryClassifier> Forecaster::TrainClassifier(
    const ForecastConfig& config) const {
  HOTSPOT_CHECK_GE(config.h, 1);
  HOTSPOT_CHECK_GE(config.w, 1);
  HOTSPOT_CHECK_GE(config.t - config.h - config.w, 0);
  HOTSPOT_CHECK_LT(config.t, target_labels_->cols());

  // Deterministic per-(model, t, h, w) seed stream, identical to Run()'s.
  Rng seeder(config.seed ^
             (static_cast<uint64_t>(config.t) << 40) ^
             (static_cast<uint64_t>(config.h) << 24) ^
             (static_cast<uint64_t>(config.w) << 8) ^
             static_cast<uint64_t>(config.model));

  const features::FeatureExtractor& extractor =
      *ExtractorFor(config.model);
  ml::Dataset train = BuildTrainingSet(config, extractor);

  std::unique_ptr<ml::BinaryClassifier> classifier;
  switch (config.model) {
    case ModelKind::kTree: {
      ml::TreeConfig tree = config.tree;
      tree.seed = seeder.NextUint64();
      classifier = std::make_unique<ml::DecisionTree>(tree);
      break;
    }
    case ModelKind::kRfRaw:
    case ModelKind::kRfF1:
    case ModelKind::kRfF2: {
      ml::ForestConfig forest = config.forest;
      forest.seed = seeder.NextUint64();
      classifier = std::make_unique<ml::RandomForest>(forest);
      break;
    }
    case ModelKind::kGbdt: {
      ml::GbdtConfig gbdt = config.gbdt;
      gbdt.seed = seeder.NextUint64();
      classifier = std::make_unique<ml::Gbdt>(gbdt);
      break;
    }
    default:
      HOTSPOT_CHECK(false) << "not a classifier model";
  }

  {
    HOTSPOT_SPAN("forecast/train");
    classifier->Fit(train);
  }
  return classifier;
}

/// Per-channel reservoir size of the monitoring fingerprints: large enough
/// for a stable two-sample KS reference, small enough that a bundle grows
/// by only a few KB per channel.
constexpr int kFingerprintReservoir = 256;

std::unique_ptr<monitor::BundleFingerprints> Forecaster::BuildFingerprints(
    const ForecastConfig& config,
    const ml::BinaryClassifier& classifier) const {
  HOTSPOT_SPAN("forecast/fingerprint");
  // The same pooled label days BuildTrainingSet uses, so the sketches
  // summarize exactly the data the classifier saw.
  const int min_label_day = PooledLabelDays(config).back();
  const int first_hour = 24 * (min_label_day - config.h - config.w);
  const int last_hour = 24 * (config.t - config.h);

  const int n = num_sectors();
  const int channels = features_->num_channels();
  const Tensor3<float>& tensor = features_->tensor();
  auto fingerprints = std::make_unique<monitor::BundleFingerprints>();
  fingerprints->first_hour = first_hour;
  fingerprints->last_hour = last_hour;
  fingerprints->channels.resize(static_cast<size_t>(channels));
  // Parallel over channels; channel k only writes its own sketch, and each
  // sketch's reservoir has its own seed, so the result is bitwise
  // independent of the thread count.
  util::ParallelFor(0, channels, [&](int64_t k64) {
    const int k = static_cast<int>(k64);
    const uint64_t seed =
        config.seed ^ 0x6670ull << 32 ^ static_cast<uint64_t>(k);
    // Only channels whose hourly values form a stationary distribution get
    // a drift reference. Calendar channels are clock features — the served
    // day always differs from the training days, so a KS test against them
    // reads "time moved forward" as drift — and the up-sampled daily/weekly
    // channels are piecewise constant, so one served day has degenerate
    // support. Their sketches stay empty, which the detector reads as
    // "not monitored".
    const features::FeatureGroup group = features_->ChannelGroup(k);
    if (group != features::FeatureGroup::kKpi &&
        group != features::FeatureGroup::kHourlyScore) {
      fingerprints->channels[static_cast<size_t>(k)] = monitor::BuildSketch(
          features_->ChannelName(k), {}, kFingerprintReservoir, seed);
      return;
    }
    std::vector<float> values;
    values.reserve(static_cast<size_t>(n) *
                   static_cast<size_t>(last_hour - first_hour));
    for (int i = 0; i < n; ++i) {
      for (int j = first_hour; j < last_hour; ++j) {
        values.push_back(tensor.At(i, j, k));
      }
    }
    fingerprints->channels[static_cast<size_t>(k)] = monitor::BuildSketch(
        features_->ChannelName(k), values, kFingerprintReservoir, seed);
  });

  // Score reference: what the trained classifier predicts on the day-t
  // windows — the distribution Run() reports and serving should keep
  // producing while the world looks like the training window.
  Matrix<float> rows =
      BuildPredictionRows(config, *ExtractorFor(config.model));
  std::vector<float> scores(static_cast<size_t>(n));
  util::ParallelFor(0, n, [&](int64_t i) {
    scores[static_cast<size_t>(i)] = static_cast<float>(
        classifier.PredictProba(rows.Row(static_cast<int>(i))));
  });
  fingerprints->scores =
      monitor::BuildSketch("prediction_score", scores, kFingerprintReservoir,
                           config.seed ^ 0x5343ull << 32);
  return fingerprints;
}

std::unique_ptr<serialize::ForecastBundle> Forecaster::TrainBundle(
    const ForecastConfig& config) const {
  HOTSPOT_CHECK(ExtractorFor(config.model) != nullptr)
      << "only classifier models can be bundled";
  auto bundle = std::make_unique<serialize::ForecastBundle>();
  bundle->model = config.model;
  bundle->window_days = config.w;
  bundle->horizon_days = config.h;
  bundle->num_channels = features_->num_channels();
  bundle->feature_dim = ExtractorFor(config.model)
                            ->OutputDim(config.w, features_->num_channels());
  bundle->classifier = TrainClassifier(config);
  bundle->fingerprints = BuildFingerprints(config, *bundle->classifier);
  bundle->flat =
      std::make_unique<ml::FlatForest>(ml::FlatForest::Compile(*bundle->classifier));
  return bundle;
}

ForecastResult Forecaster::Run(const ForecastConfig& config) const {
  HOTSPOT_CHECK_GE(config.h, 1);
  HOTSPOT_CHECK_GE(config.w, 1);
  HOTSPOT_CHECK_GE(config.t - config.h - config.w, 0);
  HOTSPOT_CHECK_LT(config.t, target_labels_->cols());

  ForecastResult result;
  result.model = config.model;

  switch (config.model) {
    case ModelKind::kRandom: {
      // Deterministic per-(model, t, h, w) seed stream.
      Rng seeder(config.seed ^
                 (static_cast<uint64_t>(config.t) << 40) ^
                 (static_cast<uint64_t>(config.h) << 24) ^
                 (static_cast<uint64_t>(config.w) << 8) ^
                 static_cast<uint64_t>(config.model));
      Rng rng = seeder.Fork(1);
      result.predictions = RandomBaseline(num_sectors(), &rng);
      return result;
    }
    case ModelKind::kPersist:
      result.predictions = PersistBaseline(*target_labels_, config.t);
      return result;
    case ModelKind::kAverage:
      result.predictions =
          AverageBaseline(*daily_scores_, config.t, config.w);
      return result;
    case ModelKind::kTrend:
      result.predictions = TrendBaseline(*daily_scores_, config.t, config.w);
      return result;
    default:
      break;
  }

  std::unique_ptr<ml::BinaryClassifier> classifier =
      TrainClassifier(config);
  const features::FeatureExtractor& extractor =
      *ExtractorFor(config.model);
  Matrix<float> prediction_rows = BuildPredictionRows(config, extractor);
  {
    HOTSPOT_SPAN("forecast/predict");
    result.predictions.resize(static_cast<size_t>(num_sectors()));
    // Batch inference parallel over sectors (PredictProba is const).
    util::ParallelFor(0, num_sectors(), [&](int64_t i) {
      result.predictions[static_cast<size_t>(i)] =
          static_cast<float>(classifier->PredictProba(
              prediction_rows.Row(static_cast<int>(i))));
    });
  }
  result.importances = classifier->FeatureImportances();
  result.feature_dim = prediction_rows.cols();
  return result;
}

}  // namespace hotspot
