#include "core/sector_filter.h"

#include <algorithm>
#include <cstdint>

#include "tensor/temporal.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hotspot {

std::vector<bool> SectorFilterMask(const Tensor3<float>& kpis,
                                   double max_missing_fraction) {
  const int n = kpis.dim0();
  const int hours = kpis.dim1();
  const int l = kpis.dim2();
  if (hours < kHoursPerWeek) {
    return std::vector<bool>(static_cast<size_t>(n), true);
  }

  // Sectors are judged on the pool. Adjacent std::vector<bool> entries
  // share a word, so the workers write bytes and the mask is copied after.
  const std::vector<uint8_t> keep = util::ParallelMap<uint8_t>(
      0, n, [&](int64_t sector) -> uint8_t {
        const int i = static_cast<int>(sector);
        // Missing cells per hour, then a sliding one-week sum.
        std::vector<int> missing_per_hour(static_cast<size_t>(hours));
        for (int j = 0; j < hours; ++j) {
          const float* slice = kpis.Slice(i, j);
          int missing = 0;
          for (int k = 0; k < l; ++k) {
            if (IsMissing(slice[k])) ++missing;
          }
          missing_per_hour[static_cast<size_t>(j)] = missing;
        }
        long long window = 0;
        const long long cells_per_week =
            static_cast<long long>(kHoursPerWeek) * l;
        for (int j = 0; j < kHoursPerWeek; ++j) {
          window += missing_per_hour[static_cast<size_t>(j)];
        }
        bool discard = window > max_missing_fraction * cells_per_week;
        for (int j = kHoursPerWeek; j < hours && !discard; ++j) {
          window += missing_per_hour[static_cast<size_t>(j)] -
                    missing_per_hour[static_cast<size_t>(j - kHoursPerWeek)];
          discard = window > max_missing_fraction * cells_per_week;
        }
        return discard ? 0 : 1;
      });
  return std::vector<bool>(keep.begin(), keep.end());
}

Tensor3<float> FilterSectors(const Tensor3<float>& kpis,
                             const std::vector<bool>& keep) {
  HOTSPOT_CHECK_EQ(static_cast<int>(keep.size()), kpis.dim0());
  std::vector<int> kept;
  for (int i = 0; i < kpis.dim0(); ++i) {
    if (keep[static_cast<size_t>(i)]) kept.push_back(i);
  }
  Tensor3<float> filtered(static_cast<int>(kept.size()), kpis.dim1(),
                          kpis.dim2(), kUninitialized);
  // Each sector's cells are one contiguous block; every kept sector's
  // block is copied, on the pool.
  const size_t block = static_cast<size_t>(kpis.dim1()) * kpis.dim2();
  const float* src = kpis.data().data();
  float* dst = filtered.data().data();
  util::ParallelFor(0, static_cast<int64_t>(kept.size()), [&](int64_t row) {
    const size_t sector = static_cast<size_t>(kept[static_cast<size_t>(row)]);
    std::copy_n(src + sector * block, block,
                dst + static_cast<size_t>(row) * block);
  });
  return filtered;
}

Matrix<float> FilterRows(const Matrix<float>& matrix,
                         const std::vector<bool>& keep) {
  HOTSPOT_CHECK_EQ(static_cast<int>(keep.size()), matrix.rows());
  int kept = 0;
  for (bool k : keep) {
    if (k) ++kept;
  }
  Matrix<float> filtered(kept, matrix.cols(), kUninitialized);
  int row = 0;
  for (int i = 0; i < matrix.rows(); ++i) {
    if (!keep[static_cast<size_t>(i)]) continue;
    const float* src = matrix.Row(i);
    float* dst = filtered.Row(row);
    for (int j = 0; j < matrix.cols(); ++j) dst[j] = src[j];
    ++row;
  }
  return filtered;
}

}  // namespace hotspot
