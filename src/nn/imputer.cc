#include "nn/imputer.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "tensor/temporal.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hotspot::nn {

void ComputeKpiNormalization(const Tensor3<float>& kpis,
                             std::vector<double>* means,
                             std::vector<double>* stds) {
  const int l = kpis.dim2();
  means->assign(static_cast<size_t>(l), 0.0);
  stds->assign(static_cast<size_t>(l), 1.0);
  std::vector<double> sums(static_cast<size_t>(l), 0.0);
  std::vector<double> sums_sq(static_cast<size_t>(l), 0.0);
  std::vector<long long> counts(static_cast<size_t>(l), 0);
  for (int i = 0; i < kpis.dim0(); ++i) {
    for (int j = 0; j < kpis.dim1(); ++j) {
      const float* slice = kpis.Slice(i, j);
      for (int k = 0; k < l; ++k) {
        if (IsMissing(slice[k])) continue;
        sums[static_cast<size_t>(k)] += slice[k];
        sums_sq[static_cast<size_t>(k)] +=
            static_cast<double>(slice[k]) * slice[k];
        ++counts[static_cast<size_t>(k)];
      }
    }
  }
  for (int k = 0; k < l; ++k) {
    size_t ks = static_cast<size_t>(k);
    if (counts[ks] == 0) continue;
    double mean = sums[ks] / counts[ks];
    double var = sums_sq[ks] / counts[ks] - mean * mean;
    (*means)[ks] = mean;
    (*stds)[ks] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }
}

KpiImputer::KpiImputer(const ImputerConfig& config) : config_(config) {
  HOTSPOT_CHECK_GT(config.slice_hours, 0);
  HOTSPOT_CHECK_GT(config.batch_size, 0);
  HOTSPOT_CHECK_GT(config.epochs, 0);
  HOTSPOT_CHECK(config.corruption_fraction >= 0.0 &&
                config.corruption_fraction <= 1.0);
}

void KpiImputer::BuildSliceRows(const Tensor3<float>& kpis, int sector,
                                int slice, double corruption_fraction,
                                Rng* rng, std::vector<float>* corrupted,
                                std::vector<float>* target,
                                std::vector<float>* mask) const {
  const int l = kpis.dim2();
  const int hours = config_.slice_hours;
  const int start = slice * hours;
  const size_t dim = static_cast<size_t>(hours) * static_cast<size_t>(l);
  corrupted->assign(dim, 0.0f);
  target->assign(dim, 0.0f);
  mask->assign(dim, 0.0f);

  // Normalized clean target + observation mask. Missing targets stay 0
  // (they are masked out of the loss anyway).
  for (int h = 0; h < hours; ++h) {
    const float* src = kpis.Slice(sector, start + h);
    for (int k = 0; k < l; ++k) {
      size_t idx = static_cast<size_t>(h) * l + k;
      if (IsMissing(src[k])) continue;
      (*target)[idx] = static_cast<float>(
          (src[k] - feature_means_[static_cast<size_t>(k)]) /
          feature_stds_[static_cast<size_t>(k)]);
      (*mask)[idx] = 1.0f;
    }
  }

  // Corruption plan: all missing cells are corrupted; additional observed
  // cells are corrupted until `corruption_fraction` of the slice is
  // covered (the paper corrupts "up to half of the slice size").
  std::vector<bool> corrupt(dim, false);
  size_t corrupt_count = 0;
  for (size_t idx = 0; idx < dim; ++idx) {
    if ((*mask)[idx] == 0.0f) {
      corrupt[idx] = true;
      ++corrupt_count;
    }
  }
  size_t budget =
      static_cast<size_t>(corruption_fraction * static_cast<double>(dim));
  while (corrupt_count < budget) {
    size_t idx = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(dim) - 1));
    if (corrupt[idx]) continue;
    corrupt[idx] = true;
    ++corrupt_count;
  }

  // Corrupted input: corrupted cells take "the first available previous
  // time sample" of the same KPI. A forward scan makes the substitution
  // propagate through runs; cells corrupted at the very start fall back to
  // 0 (the normalized mean).
  for (int k = 0; k < l; ++k) {
    float last = 0.0f;
    for (int h = 0; h < hours; ++h) {
      size_t idx = static_cast<size_t>(h) * l + k;
      if (corrupt[idx]) {
        (*corrupted)[idx] = last;
      } else {
        (*corrupted)[idx] = (*target)[idx];
        last = (*target)[idx];
      }
    }
  }
}

ImputerReport KpiImputer::Fit(const Tensor3<float>& kpis) {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  HOTSPOT_SPAN("imputer/fit");
  const int n = kpis.dim0();
  const int l = kpis.dim2();
  const int slices = kpis.dim1() / config_.slice_hours;
  HOTSPOT_CHECK_GT(n, 0);
  HOTSPOT_CHECK_GT(slices, 0);

  ComputeKpiNormalization(kpis, &feature_means_, &feature_stds_);

  AutoencoderConfig net_config;
  net_config.input_dim = config_.slice_hours * l;
  net_config.encoder_layers = config_.encoder_layers;
  net_config.learning_rate = config_.learning_rate;
  net_config.rms_decay = config_.rms_decay;
  net_config.seed = config_.seed;
  network_ = std::make_unique<DenoisingAutoencoder>(net_config);

  ImputerReport report;
  long long missing = 0;
  for (float v : kpis.data()) {
    if (IsMissing(v)) ++missing;
  }
  report.initial_missing_fraction =
      kpis.size() == 0 ? 0.0
                       : static_cast<double>(missing) /
                             static_cast<double>(kpis.size());

  Rng rng(config_.seed ^ 0xabcdef12345ull);
  // The paper's epoch = n*m_w/128 batches of 128 random slices.
  int batches_per_epoch =
      std::max(1, n * slices / config_.batch_size);
  const int dim = config_.slice_hours * l;
  std::vector<float> corrupted_row, target_row, mask_row;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    double epoch_loss = 0.0;
    for (int b = 0; b < batches_per_epoch; ++b) {
      Matrix<float> corrupted(config_.batch_size, dim);
      Matrix<float> target(config_.batch_size, dim);
      Matrix<float> mask(config_.batch_size, dim);
      for (int r = 0; r < config_.batch_size; ++r) {
        int sector = static_cast<int>(rng.UniformInt(0, n - 1));
        int slice = static_cast<int>(rng.UniformInt(0, slices - 1));
        BuildSliceRows(kpis, sector, slice, config_.corruption_fraction,
                       &rng, &corrupted_row, &target_row, &mask_row);
        std::copy(corrupted_row.begin(), corrupted_row.end(),
                  corrupted.Row(r));
        std::copy(target_row.begin(), target_row.end(), target.Row(r));
        std::copy(mask_row.begin(), mask_row.end(), mask.Row(r));
      }
      epoch_loss += network_->TrainBatch(corrupted, target, mask);
    }
    epoch_loss /= batches_per_epoch;
    report.epoch_losses.push_back(epoch_loss);
    if (epoch == 0) report.first_epoch_loss = epoch_loss;
    report.final_epoch_loss = epoch_loss;
    if (ctx != nullptr) {
      ctx->metrics().counter("imputer/epochs").Increment();
      ctx->metrics().gauge("imputer/last_epoch_loss").Set(epoch_loss);
    }
  }
  if (ctx != nullptr) {
    ctx->metrics().gauge("imputer/initial_missing_fraction")
        .Set(report.initial_missing_fraction);
  }
  return report;
}

long long KpiImputer::Impute(Tensor3<float>* kpis) const {
  HOTSPOT_SPAN("imputer/impute");
  HOTSPOT_CHECK(kpis != nullptr);
  HOTSPOT_CHECK(network_ != nullptr);
  const int n = kpis->dim0();
  const int l = kpis->dim2();
  const int slices = kpis->dim1() / config_.slice_hours;
  const int dim = config_.slice_hours * l;
  HOTSPOT_CHECK_EQ(dim, network_->input_dim());

  long long filled = 0;
  std::vector<float> corrupted_row, target_row, mask_row;
  // Imputation is deterministic: no extra corruption beyond the real
  // missing cells, so the rng is only needed by the shared builder API.
  Rng rng(config_.seed ^ 0x5eed1234ull);
  for (int i = 0; i < n; ++i) {
    for (int s = 0; s < slices; ++s) {
      // Skip complete slices.
      bool has_missing = false;
      for (int h = s * config_.slice_hours;
           h < (s + 1) * config_.slice_hours && !has_missing; ++h) {
        const float* slice = kpis->Slice(i, h);
        for (int k = 0; k < l; ++k) {
          if (IsMissing(slice[k])) {
            has_missing = true;
            break;
          }
        }
      }
      if (!has_missing) continue;

      // Build the forward-filled input without extra corruption.
      BuildSliceRows(*kpis, i, s, /*corruption_fraction=*/0.0, &rng,
                     &corrupted_row, &target_row, &mask_row);

      Matrix<float> input(1, dim);
      std::copy(corrupted_row.begin(), corrupted_row.end(), input.Row(0));
      Matrix<float> reconstruction = network_->Reconstruct(input);

      for (int h = 0; h < config_.slice_hours; ++h) {
        float* dst = kpis->Slice(i, s * config_.slice_hours + h);
        for (int k = 0; k < l; ++k) {
          if (!IsMissing(dst[k])) continue;
          size_t idx = static_cast<size_t>(h) * l + k;
          double value =
              reconstruction.At(0, static_cast<int>(idx)) *
                  feature_stds_[static_cast<size_t>(k)] +
              feature_means_[static_cast<size_t>(k)];
          dst[k] = static_cast<float>(value);
          ++filled;
        }
      }
    }
  }
  // Any hours beyond the last full slice: forward-fill as a fallback.
  int tail_start = slices * config_.slice_hours;
  if (tail_start < kpis->dim1()) {
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < l; ++k) {
        float last = MissingValue();
        for (int j = 0; j < kpis->dim1(); ++j) {
          float& cell = kpis->At(i, j, k);
          if (!IsMissing(cell)) {
            last = cell;
          } else if (j >= tail_start && !IsMissing(last)) {
            cell = last;
            ++filled;
          }
        }
      }
    }
  }
  return filled;
}

ImputerReport KpiImputer::FitAndImpute(Tensor3<float>* kpis) {
  HOTSPOT_CHECK(kpis != nullptr);
  ImputerReport report = Fit(*kpis);
  report.imputed_cells = Impute(kpis);
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics().counter("imputer/imputed_cells")
        .Add(static_cast<uint64_t>(report.imputed_cells));
  }
  return report;
}

long long ImputeForwardFill(Tensor3<float>* kpis) {
  HOTSPOT_CHECK(kpis != nullptr);
  const int n = kpis->dim0();
  const int hours = kpis->dim1();
  const int l = kpis->dim2();
  // A (sector, KPI) column with no observation takes the KPI's mean over
  // the unfilled tensor, so the means are computed, before any fill, only
  // when such a column exists.
  const std::vector<uint8_t> has_empty_column = util::ParallelMap<uint8_t>(
      0, n, [&](int64_t sector) -> uint8_t {
        const int i = static_cast<int>(sector);
        std::vector<uint8_t> observed(static_cast<size_t>(l), 0);
        int seen = 0;
        for (int j = 0; j < hours && seen < l; ++j) {
          const float* slice = kpis->Slice(i, j);
          for (int k = 0; k < l; ++k) {
            if (observed[static_cast<size_t>(k)] || IsMissing(slice[k])) {
              continue;
            }
            observed[static_cast<size_t>(k)] = 1;
            ++seen;
          }
        }
        return seen < l;
      });
  std::vector<double> means, stds;
  if (std::find(has_empty_column.begin(), has_empty_column.end(), 1) !=
      has_empty_column.end()) {
    ComputeKpiNormalization(*kpis, &means, &stds);
  }

  const std::vector<long long> filled = util::ParallelMap<long long>(
      0, n, [&](int64_t sector) {
        const int i = static_cast<int>(sector);
        long long sector_filled = 0;
        for (int k = 0; k < l; ++k) {
          float last = MissingValue();
          // Forward pass.
          for (int j = 0; j < hours; ++j) {
            float& cell = kpis->At(i, j, k);
            if (!IsMissing(cell)) {
              last = cell;
            } else if (!IsMissing(last)) {
              cell = last;
              ++sector_filled;
            }
          }
          // Leading gap: fill backward from the first observation, then
          // mean.
          for (int j = hours - 1; j >= 0; --j) {
            float& cell = kpis->At(i, j, k);
            if (!IsMissing(cell)) {
              last = cell;
            } else {
              cell = IsMissing(last)
                         ? static_cast<float>(means[static_cast<size_t>(k)])
                         : last;
              ++sector_filled;
            }
          }
        }
        return sector_filled;
      });
  long long total = 0;
  for (long long count : filled) total += count;
  return total;
}

long long ImputeFeatureMean(Tensor3<float>* kpis) {
  HOTSPOT_CHECK(kpis != nullptr);
  std::vector<double> means, stds;
  ComputeKpiNormalization(*kpis, &means, &stds);
  long long filled = 0;
  const int l = kpis->dim2();
  for (int i = 0; i < kpis->dim0(); ++i) {
    for (int j = 0; j < kpis->dim1(); ++j) {
      float* slice = kpis->Slice(i, j);
      for (int k = 0; k < l; ++k) {
        if (!IsMissing(slice[k])) continue;
        slice[k] = static_cast<float>(means[static_cast<size_t>(k)]);
        ++filled;
      }
    }
  }
  return filled;
}

}  // namespace hotspot::nn
