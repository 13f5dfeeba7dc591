#ifndef HOTSPOT_NN_IMPUTER_H_
#define HOTSPOT_NN_IMPUTER_H_

#include <vector>

#include "nn/autoencoder.h"
#include "tensor/tensor3.h"

namespace hotspot::nn {

/// Per-KPI mean/std over the finite cells of the tensor (stds of constant
/// features become 1). The per-study normalization stats the imputer and
/// the serialized ForecastBundle carry.
void ComputeKpiNormalization(const Tensor3<float>& kpis,
                             std::vector<double>* means,
                             std::vector<double>* stds);

/// Training/imputation knobs for the KPI imputer of Sec. II-C.
struct ImputerConfig {
  /// Slice length in hours; the paper uses one week (168).
  int slice_hours = 168;
  int encoder_layers = 4;
  int batch_size = 128;  ///< paper value
  /// Number of epochs; the paper trains 1000 epochs of n·m_w/128 batches.
  /// Benches use far fewer — the loss plateaus quickly at this scale.
  int epochs = 30;
  double learning_rate = 1e-4;  ///< paper value
  double rms_decay = 0.99;      ///< paper value
  /// Fraction of each slice corrupted at the encoder input (missing cells
  /// plus extra substitutions "up to half of the slice size").
  double corruption_fraction = 0.5;
  uint64_t seed = 7;
};

/// Outcome report of a Fit() + Impute() run.
struct ImputerReport {
  double initial_missing_fraction = 0.0;
  double first_epoch_loss = 0.0;
  double final_epoch_loss = 0.0;
  long long imputed_cells = 0;
  std::vector<double> epoch_losses;
};

/// Denoising-autoencoder imputer for the KPI tensor K:
/// * z-normalizes each KPI over its finite values,
/// * trains the autoencoder on randomly drawn (sector, week) slices with
///   the paper's corruption scheme (missing values and extra corrupted
///   cells are forward-filled with the most recent available sample),
/// * replaces ONLY the originally-missing cells with reconstructions,
///   restoring the original per-KPI offset and scale.
class KpiImputer {
 public:
  explicit KpiImputer(const ImputerConfig& config);

  KpiImputer(const KpiImputer&) = delete;
  KpiImputer& operator=(const KpiImputer&) = delete;

  /// Trains on `kpis` (not modified). Must be called before Impute().
  ImputerReport Fit(const Tensor3<float>& kpis);

  /// Fills missing cells of `kpis` in place; returns the number filled.
  /// Requires Fit() to have been called on compatible data (same number of
  /// KPI features and slice length dividing the hour count).
  long long Impute(Tensor3<float>* kpis) const;

  /// Convenience: Fit + Impute.
  ImputerReport FitAndImpute(Tensor3<float>* kpis);

  const ImputerConfig& config() const { return config_; }

 private:
  /// Builds the clean target, corrupted input, and observation mask for
  /// one (sector, week) slice, flattened to a single row. At least the
  /// missing cells are corrupted; extra observed cells are corrupted until
  /// `corruption_fraction` of the slice is covered.
  void BuildSliceRows(const Tensor3<float>& kpis, int sector, int slice,
                      double corruption_fraction, Rng* rng,
                      std::vector<float>* corrupted,
                      std::vector<float>* target,
                      std::vector<float>* mask) const;

  ImputerConfig config_;
  std::vector<double> feature_means_;
  std::vector<double> feature_stds_;
  std::unique_ptr<DenoisingAutoencoder> network_;
};

/// Baseline imputations used by the ablation bench: forward-fill with the
/// most recent available value per (sector, KPI) (falling back to the next
/// available, then the KPI mean), or a constant fill with the KPI mean.
long long ImputeForwardFill(Tensor3<float>* kpis);
long long ImputeFeatureMean(Tensor3<float>* kpis);

}  // namespace hotspot::nn

#endif  // HOTSPOT_NN_IMPUTER_H_
