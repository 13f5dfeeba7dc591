#include <cmath>
#include <memory>

#include "gtest/gtest.h"
#include "nn/autoencoder.h"
#include "nn/imputer.h"
#include "nn/layers.h"
#include "nn/matrix_ops.h"
#include "nn/optimizer.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace hotspot::nn {
namespace {

Matrix<float> Make(const std::vector<std::vector<float>>& rows) {
  Matrix<float> m(static_cast<int>(rows.size()),
                  static_cast<int>(rows[0].size()));
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      m(static_cast<int>(r), static_cast<int>(c)) = rows[r][c];
    }
  }
  return m;
}

TEST(MatrixOps, MatMulHandComputed) {
  Matrix<float> a = Make({{1, 2}, {3, 4}});
  Matrix<float> b = Make({{5, 6}, {7, 8}});
  Matrix<float> out;
  MatMul(a, b, &out);
  EXPECT_FLOAT_EQ(out(0, 0), 19);
  EXPECT_FLOAT_EQ(out(0, 1), 22);
  EXPECT_FLOAT_EQ(out(1, 0), 43);
  EXPECT_FLOAT_EQ(out(1, 1), 50);
}

TEST(MatrixOps, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(3);
  Matrix<float> a(4, 3);
  Matrix<float> b(4, 5);
  for (float& v : a.data()) v = static_cast<float>(rng.Gaussian());
  for (float& v : b.data()) v = static_cast<float>(rng.Gaussian());
  // aᵀ·b via MatMulTransposedA vs manual transpose.
  Matrix<float> at(3, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) at(j, i) = a(i, j);
  }
  Matrix<float> expected, actual;
  MatMul(at, b, &expected);
  MatMulTransposedA(a, b, &actual);
  for (size_t idx = 0; idx < expected.data().size(); ++idx) {
    EXPECT_NEAR(actual.data()[idx], expected.data()[idx], 1e-5);
  }
  // a·bᵀ via MatMulTransposedB where shapes permit: use b (4x5), c (2x5).
  Matrix<float> c(2, 5);
  for (float& v : c.data()) v = static_cast<float>(rng.Gaussian());
  Matrix<float> ct(5, 2);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 5; ++j) ct(j, i) = c(i, j);
  }
  MatMul(b, ct, &expected);
  MatMulTransposedB(b, c, &actual);
  for (size_t idx = 0; idx < expected.data().size(); ++idx) {
    EXPECT_NEAR(actual.data()[idx], expected.data()[idx], 1e-5);
  }
}

TEST(Dense, ForwardAffine) {
  Rng rng(5);
  Dense dense(2, 1, &rng);
  // Overwrite parameters for a deterministic check: out = 2x + 3y + 1.
  std::vector<ParamView> params = dense.Params();
  params[0].values[0] = 2.0f;
  params[0].values[1] = 3.0f;
  params[1].values[0] = 1.0f;
  Matrix<float> out = dense.Forward(Make({{1, 1}, {2, 0}}));
  EXPECT_FLOAT_EQ(out(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(out(1, 0), 5.0f);
}

/// Numerical gradient check of a Dense+PReLU+Dense stack against the
/// analytic backward pass, through the masked MSE loss.
TEST(Layers, NumericalGradientCheck) {
  Rng rng(7);
  Sequential network;
  network.Add(std::make_unique<Dense>(3, 4, &rng));
  network.Add(std::make_unique<PRelu>(4));
  network.Add(std::make_unique<Dense>(4, 2, &rng));

  Matrix<float> input = Make({{0.5f, -0.3f, 0.8f}, {-1.0f, 0.2f, 0.1f}});
  Matrix<float> target = Make({{0.3f, -0.1f}, {0.0f, 0.7f}});
  Matrix<float> mask = Make({{1, 1}, {1, 0}});

  auto loss_fn = [&]() {
    Matrix<float> recon = network.Forward(input);
    return MaskedMse(recon, target, mask, nullptr);
  };

  // Analytic gradients.
  network.ZeroGrads();
  Matrix<float> recon = network.Forward(input);
  Matrix<float> grad;
  MaskedMse(recon, target, mask, &grad);
  network.Backward(grad);

  // Compare a sample of parameters against central differences.
  const float kEps = 1e-3f;
  for (ParamView view : network.Params()) {
    size_t stride = std::max<size_t>(1, view.size / 5);
    for (size_t p = 0; p < view.size; p += stride) {
      float saved = view.values[p];
      view.values[p] = saved + kEps;
      double up = loss_fn();
      view.values[p] = saved - kEps;
      double down = loss_fn();
      view.values[p] = saved;
      double numeric = (up - down) / (2.0 * kEps);
      EXPECT_NEAR(view.grads[p], numeric, 2e-2)
          << "param " << p << " of view with size " << view.size;
    }
  }
}

TEST(PRelu, ForwardSlopes) {
  PRelu prelu(2, 0.5f);
  Matrix<float> out = prelu.Forward(Make({{2.0f, -2.0f}}));
  EXPECT_FLOAT_EQ(out(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out(0, 1), -1.0f);
}

TEST(RmsProp, MinimizesQuadratic) {
  // One parameter, loss = (x - 3)^2, gradient 2(x-3).
  std::vector<float> x = {0.0f};
  std::vector<float> grad = {0.0f};
  RmsProp optimizer(0.05, 0.9);
  std::vector<ParamView> params = {{x.data(), grad.data(), 1}};
  for (int step = 0; step < 500; ++step) {
    grad[0] = 2.0f * (x[0] - 3.0f);
    optimizer.Step(params);
  }
  EXPECT_NEAR(x[0], 3.0f, 0.1f);
}

TEST(MaskedMse, ValueAndGradient) {
  Matrix<float> recon = Make({{1.0f, 2.0f}});
  Matrix<float> target = Make({{0.0f, 5.0f}});
  Matrix<float> mask = Make({{1.0f, 0.0f}});
  Matrix<float> grad;
  double loss = MaskedMse(recon, target, mask, &grad);
  EXPECT_DOUBLE_EQ(loss, 1.0);  // only the first cell counts
  EXPECT_FLOAT_EQ(grad(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(grad(0, 1), 0.0f);
}

TEST(MaskedMse, AllMaskedIsZero) {
  Matrix<float> m = Make({{1.0f}});
  Matrix<float> zero_mask = Make({{0.0f}});
  EXPECT_DOUBLE_EQ(MaskedMse(m, m, zero_mask, nullptr), 0.0);
}

TEST(Autoencoder, ArchitectureHalvesWidths) {
  AutoencoderConfig config;
  config.input_dim = 64;
  config.encoder_layers = 3;
  DenoisingAutoencoder autoencoder(config);
  EXPECT_EQ(autoencoder.input_dim(), 64);
  EXPECT_EQ(autoencoder.code_dim(), 8);
}

TEST(Autoencoder, LearnsLowRankStructure) {
  // Data on a 1-D manifold: x = t * direction. The autoencoder should
  // reconstruct it much better after training than before.
  const int kDim = 16;
  Rng rng(11);
  std::vector<float> direction(kDim);
  for (float& v : direction) v = static_cast<float>(rng.Gaussian());

  auto make_batch = [&](int batch) {
    Matrix<float> data(batch, kDim);
    for (int r = 0; r < batch; ++r) {
      float t = static_cast<float>(rng.Gaussian());
      for (int c = 0; c < kDim; ++c) data(r, c) = t * direction[c];
    }
    return data;
  };

  AutoencoderConfig config;
  config.input_dim = kDim;
  config.encoder_layers = 2;
  config.learning_rate = 3e-3;
  DenoisingAutoencoder autoencoder(config);

  Matrix<float> ones_mask(32, kDim, 1.0f);
  Matrix<float> eval = make_batch(32);
  double before = autoencoder.Loss(eval, eval, ones_mask);
  for (int step = 0; step < 400; ++step) {
    Matrix<float> batch = make_batch(32);
    autoencoder.TrainBatch(batch, batch, ones_mask);
  }
  double after = autoencoder.Loss(eval, eval, ones_mask);
  EXPECT_LT(after, 0.25 * before);
}

TEST(Imputer, FillsAllMissingValues) {
  // Two weeks of a sinusoidal KPI with injected gaps.
  const int kSectors = 6;
  const int kHours = 2 * 168;
  const int kKpis = 3;
  Tensor3<float> kpis(kSectors, kHours, kKpis);
  Rng rng(13);
  for (int i = 0; i < kSectors; ++i) {
    for (int j = 0; j < kHours; ++j) {
      for (int k = 0; k < kKpis; ++k) {
        kpis(i, j, k) = static_cast<float>(
            std::sin(2 * M_PI * (j % 24) / 24.0 + k) + 0.05 * rng.Gaussian());
      }
    }
  }
  Tensor3<float> truth = kpis;
  for (int i = 0; i < kSectors; ++i) {
    for (int j = 100; j < 130; ++j) {
      for (int k = 0; k < kKpis; ++k) kpis(i, j, k) = MissingValue();
    }
  }

  ImputerConfig config;
  config.slice_hours = 168;
  config.encoder_layers = 2;
  config.epochs = 3;
  config.batch_size = 8;
  config.learning_rate = 1e-3;
  KpiImputer imputer(config);
  ImputerReport report = imputer.FitAndImpute(&kpis);
  EXPECT_GT(report.imputed_cells, 0);
  for (float v : kpis.data()) EXPECT_FALSE(IsMissing(v));
  EXPECT_GT(report.initial_missing_fraction, 0.0);
}

TEST(Imputer, OnlyMissingCellsAreReplaced) {
  Tensor3<float> kpis(4, 168, 2, 1.5f);
  kpis(0, 10, 0) = MissingValue();
  Tensor3<float> original = kpis;
  ImputerConfig config;
  config.encoder_layers = 2;
  config.epochs = 2;
  config.batch_size = 4;
  KpiImputer imputer(config);
  imputer.FitAndImpute(&kpis);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 168; ++j) {
      for (int k = 0; k < 2; ++k) {
        if (i == 0 && j == 10 && k == 0) {
          EXPECT_FALSE(IsMissing(kpis(i, j, k)));
        } else {
          EXPECT_FLOAT_EQ(kpis(i, j, k), original(i, j, k));
        }
      }
    }
  }
}

TEST(Imputer, LossDecreasesOverEpochs) {
  Tensor3<float> kpis(8, 168, 2);
  Rng rng(17);
  for (size_t idx = 0; idx < kpis.data().size(); ++idx) {
    kpis.data()[idx] = static_cast<float>(
        std::sin(idx * 0.1) + 0.01 * rng.Gaussian());
  }
  ImputerConfig config;
  config.encoder_layers = 2;
  config.epochs = 6;
  config.batch_size = 8;
  config.learning_rate = 1e-3;
  KpiImputer imputer(config);
  ImputerReport report = imputer.Fit(kpis);
  EXPECT_LT(report.final_epoch_loss, report.first_epoch_loss);
}

TEST(ForwardFill, FillsInteriorGapsWithPreviousValue) {
  Tensor3<float> kpis(1, 6, 1);
  kpis(0, 0, 0) = 1.0f;
  kpis(0, 1, 0) = MissingValue();
  kpis(0, 2, 0) = MissingValue();
  kpis(0, 3, 0) = 4.0f;
  kpis(0, 4, 0) = MissingValue();
  kpis(0, 5, 0) = 6.0f;
  long long filled = ImputeForwardFill(&kpis);
  EXPECT_EQ(filled, 3);
  EXPECT_FLOAT_EQ(kpis(0, 1, 0), 1.0f);
  EXPECT_FLOAT_EQ(kpis(0, 2, 0), 1.0f);
  EXPECT_FLOAT_EQ(kpis(0, 4, 0), 4.0f);
}

TEST(ForwardFill, LeadingGapBackfilled) {
  Tensor3<float> kpis(1, 3, 1);
  kpis(0, 0, 0) = MissingValue();
  kpis(0, 1, 0) = MissingValue();
  kpis(0, 2, 0) = 9.0f;
  ImputeForwardFill(&kpis);
  EXPECT_FLOAT_EQ(kpis(0, 0, 0), 9.0f);
  EXPECT_FLOAT_EQ(kpis(0, 1, 0), 9.0f);
}

TEST(ForwardFill, AllMissingColumnTakesThePreFillMean) {
  // Sector 1 never observes KPI 0, so its whole column takes KPI 0's mean
  // over the observed cells of the unfilled tensor: (2 + 4 + 9) / 3 = 5.
  // Had the mean been taken after sector 0's gap was filled with 2, it
  // would read (2 + 2 + 4 + 9) / 4 = 4.25.
  Tensor3<float> kpis(3, 4, 2, 1.0f);
  kpis(0, 0, 0) = 2.0f;
  kpis(0, 1, 0) = MissingValue();
  kpis(0, 2, 0) = 4.0f;
  kpis(0, 3, 0) = MissingValue();
  for (int j = 0; j < 4; ++j) kpis(1, j, 0) = MissingValue();
  kpis(2, 0, 0) = MissingValue();
  kpis(2, 1, 0) = MissingValue();
  kpis(2, 2, 0) = MissingValue();
  kpis(2, 3, 0) = 9.0f;
  kpis(2, 1, 1) = MissingValue();
  std::vector<double> means, stds;
  ComputeKpiNormalization(kpis, &means, &stds);
  ASSERT_EQ(means[0], 5.0);

  long long filled = ImputeForwardFill(&kpis);
  EXPECT_EQ(filled, 10);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(kpis(1, j, 0), static_cast<float>(means[0])) << "hour " << j;
  }
  EXPECT_EQ(kpis(0, 1, 0), 2.0f);
  EXPECT_EQ(kpis(0, 3, 0), 4.0f);
  EXPECT_EQ(kpis(2, 0, 0), 9.0f);
  EXPECT_EQ(kpis(2, 1, 1), 1.0f);
}

TEST(FeatureMean, FillsWithPerKpiMean) {
  Tensor3<float> kpis(1, 4, 2);
  kpis(0, 0, 0) = 2.0f;
  kpis(0, 1, 0) = 4.0f;
  kpis(0, 2, 0) = MissingValue();
  kpis(0, 3, 0) = 6.0f;
  for (int j = 0; j < 4; ++j) kpis(0, j, 1) = 10.0f;
  long long filled = ImputeFeatureMean(&kpis);
  EXPECT_EQ(filled, 1);
  EXPECT_FLOAT_EQ(kpis(0, 2, 0), 4.0f);
}

}  // namespace
}  // namespace hotspot::nn
