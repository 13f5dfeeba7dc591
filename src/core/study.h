#ifndef HOTSPOT_CORE_STUDY_H_
#define HOTSPOT_CORE_STUDY_H_

#include <cmath>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/forecaster.h"
#include "core/score.h"
#include "features/feature_tensor.h"
#include "nn/imputer.h"
#include "simnet/generator.h"
#include "tensor/matrix.h"

namespace hotspot {

/// How missing values are handled before scoring (Sec. II-C; the
/// autoencoder is the paper's method, the others are ablation baselines).
enum class ImputationKind { kAutoencoder, kForwardFill, kFeatureMean, kNone };

/// End-to-end preprocessing options.
struct StudyOptions {
  ImputationKind imputation = ImputationKind::kForwardFill;
  /// Autoencoder settings (used when imputation == kAutoencoder). The
  /// defaults keep bench runtimes sane; raise epochs for fidelity.
  nn::ImputerConfig imputer;
  /// Overrides the hot threshold ε (NaN = use the score config default).
  double hot_threshold_override = std::nan("");
};

/// Everything the paper's analyses and forecasts consume, derived from a
/// synthetic network by the standard pipeline:
///   sector filter → imputation → S'/S^d/S^w → Y labels → X tensor.
struct Study {
  simnet::SyntheticNetwork network;   ///< post-filter network (ground truth)
  ScoreConfig score_config;
  ScoreSet scores;                    ///< hourly/daily/weekly
  Matrix<float> hourly_labels;        ///< Y^h
  Matrix<float> daily_labels;         ///< Y^d
  Matrix<float> weekly_labels;        ///< Y^w
  Matrix<float> become_labels;        ///< "become a hot spot" (daily)
  features::FeatureTensor features;   ///< X (Eq. 5)
  int sectors_filtered_out = 0;
  nn::ImputerReport imputer_report;   ///< meaningful for kAutoencoder

  int num_sectors() const { return network.num_sectors(); }
  int num_days() const { return daily_labels.cols(); }
  int num_weeks() const { return weekly_labels.cols(); }

  /// Target-label matrix for a scenario.
  const Matrix<float>& TargetLabels(TargetKind target) const {
    return target == TargetKind::kBeHotSpot ? daily_labels : become_labels;
  }

  /// Builds a Forecaster bound to this study's tensors for a scenario.
  Forecaster MakeForecaster(TargetKind target) const {
    return Forecaster(&features, &scores.daily, &TargetLabels(target));
  }
};

/// The input side of the study pipeline: either a generator config (a
/// network is generated first) or an already built network (consumed).
/// Implicitly constructible from both, so call sites read
/// `BuildStudy(config)` / `BuildStudy(std::move(network))`.
class StudyInput {
 public:
  StudyInput(simnet::GeneratorConfig config)  // NOLINT(runtime/explicit)
      : config_(std::move(config)) {}
  StudyInput(simnet::SyntheticNetwork network)  // NOLINT(runtime/explicit)
      : network_(std::move(network)), has_network_(true) {}

  bool has_network() const { return has_network_; }
  const simnet::GeneratorConfig& config() const { return config_; }

  /// Moves the network out (generating from the config when none was
  /// supplied). One-shot: a StudyInput is consumed by BuildStudy.
  simnet::SyntheticNetwork TakeNetwork() &&;

 private:
  simnet::GeneratorConfig config_;
  simnet::SyntheticNetwork network_;
  bool has_network_ = false;
};

/// Runs the full pipeline — sector filter, imputation, scores, labels,
/// feature tensor — on the given input. The single entry point: StudyInput
/// converts implicitly from both a GeneratorConfig and a built network.
/// (The legacy BuildStudy(config)/BuildStudyFromNetwork(network) wrapper
/// pair was removed after its deprecation cycle.)
Study BuildStudy(StudyInput input, const StudyOptions& options = {});

}  // namespace hotspot

#endif  // HOTSPOT_CORE_STUDY_H_
