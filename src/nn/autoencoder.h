#ifndef HOTSPOT_NN_AUTOENCODER_H_
#define HOTSPOT_NN_AUTOENCODER_H_

#include <vector>

#include "nn/layers.h"
#include "nn/optimizer.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace hotspot::nn {

/// Architecture/training knobs of the denoising autoencoder of Sec. II-C.
struct AutoencoderConfig {
  int input_dim = 0;
  /// Encoder depth; each encoder layer halves its input size (paper: 4).
  int encoder_layers = 4;
  double learning_rate = 1e-4;  ///< paper value
  double rms_decay = 0.99;      ///< paper value
  uint64_t seed = 1;
};

/// Stacked denoising autoencoder: `encoder_layers` Dense+PReLU blocks with
/// halving widths, then a symmetric decoder (the last decoder layer is
/// linear so the output can take any real value).
class DenoisingAutoencoder {
 public:
  explicit DenoisingAutoencoder(const AutoencoderConfig& config);

  DenoisingAutoencoder(const DenoisingAutoencoder&) = delete;
  DenoisingAutoencoder& operator=(const DenoisingAutoencoder&) = delete;

  /// One SGD step on a batch. `corrupted` is the noised input, `target`
  /// the clean signal, and `mask` selects the cells that contribute to the
  /// loss (1 = originally observed). All three are batch x input_dim.
  /// Returns the masked mean-squared error of the batch before the update.
  double TrainBatch(const Matrix<float>& corrupted,
                    const Matrix<float>& target, const Matrix<float>& mask);

  /// Reconstructs a batch (no training side effects beyond layer caches).
  Matrix<float> Reconstruct(const Matrix<float>& input);

  /// Masked mean-squared error without updating parameters.
  double Loss(const Matrix<float>& corrupted, const Matrix<float>& target,
              const Matrix<float>& mask);

  int input_dim() const { return config_.input_dim; }
  /// Width of the innermost code layer.
  int code_dim() const { return code_dim_; }

 private:
  AutoencoderConfig config_;
  int code_dim_ = 0;
  Sequential network_;
  RmsProp optimizer_;
};

/// Computes masked MSE and (optionally) its gradient w.r.t. the
/// reconstruction. Exposed for tests.
double MaskedMse(const Matrix<float>& reconstruction,
                 const Matrix<float>& target, const Matrix<float>& mask,
                 Matrix<float>* grad_out = nullptr);

}  // namespace hotspot::nn

#endif  // HOTSPOT_NN_AUTOENCODER_H_
