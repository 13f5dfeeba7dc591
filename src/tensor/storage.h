#ifndef HOTSPOT_TENSOR_STORAGE_H_
#define HOTSPOT_TENSOR_STORAGE_H_

#include <algorithm>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace hotspot {

/// std::allocator whose construct() with no arguments default-initializes
/// instead of value-initializing, so for a trivial T a `Storage<T>(n)`
/// leaves its n cells unwritten: the threads that later fill them are the
/// first to touch their pages. Construction from a value (a fill, a copy)
/// is unchanged.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// The contiguous storage of Tensor3, Matrix and ml::BinTiles. Copies
/// allocate unwritten cells and fill them with std::copy: libstdc++ copies
/// into a vector whose allocator is not std::allocator one construct() per
/// cell, a scalar loop that GCC 12 at -O2 does not turn into a memmove, and
/// that is 6-18x slower than the memmove on 16-256 KB arrays (Xeon, 4 vCPU).
template <typename T>
class Storage : public std::vector<T, DefaultInitAllocator<T>> {
  using Base = std::vector<T, DefaultInitAllocator<T>>;

 public:
  using Base::Base;

  Storage(const Storage& other) : Base(other.size()) {
    std::copy(other.begin(), other.end(), this->begin());
  }
  Storage(Storage&&) noexcept = default;

  Storage& operator=(const Storage& other) {
    if (this != &other) {
      this->clear();  // so a growing resize has no cells to move
      this->resize(other.size());
      std::copy(other.begin(), other.end(), this->begin());
    }
    return *this;
  }
  Storage& operator=(Storage&&) noexcept = default;
};

/// Selects the constructors that allocate with no fill. Every cell holds
/// garbage until written, so a builder may use them only when its loop
/// writes every cell.
struct Uninitialized {
  explicit Uninitialized() = default;
};
inline constexpr Uninitialized kUninitialized{};

}  // namespace hotspot

#endif  // HOTSPOT_TENSOR_STORAGE_H_
