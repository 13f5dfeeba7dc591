#ifndef HOTSPOT_TENSOR_MATRIX_H_
#define HOTSPOT_TENSOR_MATRIX_H_

#include <cmath>
#include <vector>

#include "tensor/storage.h"
#include "util/logging.h"

namespace hotspot {

/// Dense row-major matrix. Rows usually index sectors and columns index
/// time samples (the paper's S, Y and C matrices).
///
/// Missing values are represented as quiet NaN for floating-point T; every
/// consumer in this library states its NaN policy explicitly.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(Cells(rows, cols), fill) {}

  /// Creates a rows x cols matrix whose cells are unwritten, for a builder
  /// whose loop writes every cell.
  Matrix(int rows, int cols, Uninitialized)
      : rows_(rows), cols_(cols), data_(Cells(rows, cols)) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  T& operator()(int r, int c) {
    HOTSPOT_CHECK(InBounds(r, c));
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  const T& operator()(int r, int c) const {
    HOTSPOT_CHECK(InBounds(r, c));
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Unchecked access for hot loops. Prefer operator() elsewhere.
  T& At(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  const T& At(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Pointer to the start of row r (contiguous, cols() elements).
  T* Row(int r) {
    HOTSPOT_CHECK(r >= 0 && r < rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const T* Row(int r) const {
    HOTSPOT_CHECK(r >= 0 && r < rows_);
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// Copies row r into a vector.
  std::vector<T> RowVector(int r) const {
    const T* p = Row(r);
    return std::vector<T>(p, p + cols_);
  }

  /// Copies column c into a vector.
  std::vector<T> ColVector(int c) const {
    HOTSPOT_CHECK(c >= 0 && c < cols_);
    std::vector<T> column(static_cast<size_t>(rows_));
    for (int r = 0; r < rows_; ++r) column[static_cast<size_t>(r)] = At(r, c);
    return column;
  }

  void Fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  Storage<T>& data() { return data_; }
  const Storage<T>& data() const { return data_; }

 private:
  static size_t Cells(int rows, int cols) {
    HOTSPOT_CHECK_GE(rows, 0);
    HOTSPOT_CHECK_GE(cols, 0);
    return static_cast<size_t>(rows) * static_cast<size_t>(cols);
  }
  bool InBounds(int r, int c) const {
    return r >= 0 && r < rows_ && c >= 0 && c < cols_;
  }

  int rows_ = 0;
  int cols_ = 0;
  Storage<T> data_;
};

/// True when `value` represents a missing observation (NaN).
inline bool IsMissing(float value) { return std::isnan(value); }
inline bool IsMissing(double value) { return std::isnan(value); }

/// The canonical missing-value marker.
inline float MissingValue() { return std::nanf(""); }

}  // namespace hotspot

#endif  // HOTSPOT_TENSOR_MATRIX_H_
