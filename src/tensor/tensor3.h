#ifndef HOTSPOT_TENSOR_TENSOR3_H_
#define HOTSPOT_TENSOR_TENSOR3_H_

#include <vector>

#include "tensor/matrix.h"
#include "tensor/storage.h"
#include "util/logging.h"

namespace hotspot {

/// Dense three-dimensional tensor with the paper's axis convention:
///   dim0 = sector i, dim1 = time sample j, dim2 = feature/indicator k.
/// Storage is row-major in (i, j, k), so the k-axis is contiguous and a
/// (time, feature) slab of one sector is a contiguous block — the layout the
/// feature extractors and the autoencoder batcher want.
template <typename T>
class Tensor3 {
 public:
  Tensor3() = default;

  Tensor3(int dim0, int dim1, int dim2, T fill = T{})
      : dim0_(dim0), dim1_(dim1), dim2_(dim2),
        data_(Cells(dim0, dim1, dim2), fill) {}

  /// A tensor whose cells are unwritten, for a builder whose loop writes
  /// every cell.
  Tensor3(int dim0, int dim1, int dim2, Uninitialized)
      : dim0_(dim0), dim1_(dim1), dim2_(dim2),
        data_(Cells(dim0, dim1, dim2)) {}

  int dim0() const { return dim0_; }
  int dim1() const { return dim1_; }
  int dim2() const { return dim2_; }
  size_t size() const { return data_.size(); }

  T& operator()(int i, int j, int k) {
    HOTSPOT_CHECK(InBounds(i, j, k));
    return data_[Index(i, j, k)];
  }
  const T& operator()(int i, int j, int k) const {
    HOTSPOT_CHECK(InBounds(i, j, k));
    return data_[Index(i, j, k)];
  }

  /// Unchecked access for hot loops.
  T& At(int i, int j, int k) { return data_[Index(i, j, k)]; }
  const T& At(int i, int j, int k) const { return data_[Index(i, j, k)]; }

  /// Pointer to the contiguous feature vector of (sector i, time j).
  T* Slice(int i, int j) {
    HOTSPOT_CHECK(i >= 0 && i < dim0_ && j >= 0 && j < dim1_);
    return data_.data() + Index(i, j, 0);
  }
  const T* Slice(int i, int j) const {
    HOTSPOT_CHECK(i >= 0 && i < dim0_ && j >= 0 && j < dim1_);
    return data_.data() + Index(i, j, 0);
  }

  /// Copies the time series of (sector i, feature k) over [t0, t1).
  std::vector<T> TimeSeries(int i, int k, int t0, int t1) const {
    HOTSPOT_CHECK(t0 >= 0 && t1 <= dim1_ && t0 <= t1);
    std::vector<T> series(static_cast<size_t>(t1 - t0));
    for (int j = t0; j < t1; ++j) {
      series[static_cast<size_t>(j - t0)] = At(i, j, k);
    }
    return series;
  }

  /// Copies the (time, feature) slab of sector i over [t0, t1) into a
  /// (t1-t0) x dim2 matrix — the X_{i, a:b, :} slice of Eq. 6.
  Matrix<T> SectorSlab(int i, int t0, int t1) const {
    HOTSPOT_CHECK(i >= 0 && i < dim0_);
    HOTSPOT_CHECK(t0 >= 0 && t1 <= dim1_ && t0 <= t1);
    Matrix<T> slab(t1 - t0, dim2_);
    for (int j = t0; j < t1; ++j) {
      const T* src = Slice(i, j);
      T* dst = slab.Row(j - t0);
      for (int k = 0; k < dim2_; ++k) dst[k] = src[k];
    }
    return slab;
  }

  void Fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  Storage<T>& data() { return data_; }
  const Storage<T>& data() const { return data_; }

 private:
  static size_t Cells(int dim0, int dim1, int dim2) {
    HOTSPOT_CHECK_GE(dim0, 0);
    HOTSPOT_CHECK_GE(dim1, 0);
    HOTSPOT_CHECK_GE(dim2, 0);
    return static_cast<size_t>(dim0) * static_cast<size_t>(dim1) *
           static_cast<size_t>(dim2);
  }
  size_t Index(int i, int j, int k) const {
    return (static_cast<size_t>(i) * dim1_ + j) * dim2_ + k;
  }
  bool InBounds(int i, int j, int k) const {
    return i >= 0 && i < dim0_ && j >= 0 && j < dim1_ && k >= 0 && k < dim2_;
  }

  int dim0_ = 0;
  int dim1_ = 0;
  int dim2_ = 0;
  Storage<T> data_;
};

}  // namespace hotspot

#endif  // HOTSPOT_TENSOR_TENSOR3_H_
