#ifndef HOTSPOT_TENSOR_WINDOW_BATCH_H_
#define HOTSPOT_TENSOR_WINDOW_BATCH_H_

#include <cstddef>

#include "tensor/tensor3.h"
#include "util/logging.h"

namespace hotspot {

/// A batch of per-sector input windows (Eq. 6's X_{i, t−w : t, :}) read
/// where they lie: window i is `hours` rows of `channels` floats,
/// contiguous and row-major, starting `i · stride` floats past `data`.
/// Nothing is owned; the view is valid while its source is unchanged.
/// Both serving sources are such views — a tensor's hour span (stride
/// dim1 × dim2) and IncrementalFeatureEngine::ServingWindows over the
/// mirrored history ring (stride (history + window) × channels).
struct WindowBatch {
  const float* data = nullptr;
  int count = 0;     ///< sectors
  int hours = 0;     ///< rows per window
  int channels = 0;  ///< floats per row
  size_t stride = 0;  ///< floats from one window's start to the next

  const float* Window(int i) const {
    return data + static_cast<size_t>(i) * stride;
  }
  const float* Row(int i, int hour) const {
    return Window(i) + static_cast<size_t>(hour) * channels;
  }

  /// Hours [hour_begin, hour_end) of every sector of `tensor`.
  static WindowBatch Of(const Tensor3<float>& tensor, int hour_begin,
                        int hour_end) {
    HOTSPOT_CHECK(hour_begin >= 0 && hour_begin <= hour_end &&
                  hour_end <= tensor.dim1());
    WindowBatch batch;
    batch.data = tensor.data().data() +
                 static_cast<size_t>(hour_begin) * tensor.dim2();
    batch.count = tensor.dim0();
    batch.hours = hour_end - hour_begin;
    batch.channels = tensor.dim2();
    batch.stride = static_cast<size_t>(tensor.dim1()) * tensor.dim2();
    return batch;
  }
};

}  // namespace hotspot

#endif  // HOTSPOT_TENSOR_WINDOW_BATCH_H_
