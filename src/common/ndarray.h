// Dense row-major k-dimensional array (k <= 4), the in-memory form of every
// scientific field handled by the library.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"

namespace eblcio {

// Maximum dimensionality supported anywhere in the library. The paper's data
// sets span 1D (HACC) to 4D (S3D).
inline constexpr int kMaxDims = 4;

// Shape of a k-d array. Dimensions are stored slowest-varying first
// (row-major), matching SDRBench conventions (e.g. CESM is 26x1800x3600).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) {
    EBLCIO_CHECK_ARG(dims.size() >= 1 && dims.size() <= kMaxDims,
                     "shape must have 1..4 dimensions");
    ndims_ = static_cast<int>(dims.size());
    int i = 0;
    for (std::size_t d : dims) {
      EBLCIO_CHECK_ARG(d > 0, "shape dimensions must be positive");
      dims_[i++] = d;
    }
  }
  explicit Shape(std::span<const std::size_t> dims) {
    EBLCIO_CHECK_ARG(dims.size() >= 1 && dims.size() <= kMaxDims,
                     "shape must have 1..4 dimensions");
    ndims_ = static_cast<int>(dims.size());
    for (int i = 0; i < ndims_; ++i) {
      EBLCIO_CHECK_ARG(dims[i] > 0, "shape dimensions must be positive");
      dims_[i] = dims[i];
    }
  }

  int ndims() const { return ndims_; }
  std::size_t dim(int i) const {
    EBLCIO_CHECK_ARG(i >= 0 && i < ndims_, "dimension index out of range");
    return dims_[i];
  }
  std::size_t operator[](int i) const { return dim(i); }

  std::size_t num_elements() const {
    std::size_t n = 1;
    for (int i = 0; i < ndims_; ++i) n *= dims_[i];
    return n;
  }

  // Row-major strides in elements.
  std::array<std::size_t, kMaxDims> strides() const {
    std::array<std::size_t, kMaxDims> s{};
    std::size_t acc = 1;
    for (int i = ndims_ - 1; i >= 0; --i) {
      s[i] = acc;
      acc *= dims_[i];
    }
    return s;
  }

  std::vector<std::size_t> dims_vector() const {
    return std::vector<std::size_t>(dims_.begin(), dims_.begin() + ndims_);
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.ndims_ != b.ndims_) return false;
    for (int i = 0; i < a.ndims_; ++i)
      if (a.dims_[i] != b.dims_[i]) return false;
    return true;
  }

 private:
  int ndims_ = 0;
  std::array<std::size_t, kMaxDims> dims_{};
};

// Owning dense row-major array.
template <typename T>
class NdArray {
 public:
  NdArray() = default;
  explicit NdArray(Shape shape)
      : shape_(shape), data_(shape.num_elements()) {}
  NdArray(Shape shape, std::vector<T> data)
      : shape_(shape), data_(std::move(data)) {
    EBLCIO_CHECK_ARG(data_.size() == shape_.num_elements(),
                     "buffer size does not match shape");
  }

  const Shape& shape() const { return shape_; }
  int ndims() const { return shape_.ndims(); }
  std::size_t num_elements() const { return data_.size(); }
  std::size_t size_bytes() const { return data_.size() * sizeof(T); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::span<T> span() { return {data_.data(), data_.size()}; }
  std::span<const T> span() const { return {data_.data(), data_.size()}; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  // Multi-index access; unused trailing indices must be 0.
  const T& at(std::size_t i0, std::size_t i1 = 0, std::size_t i2 = 0,
              std::size_t i3 = 0) const {
    const auto s = shape_.strides();
    const int nd = shape_.ndims();
    return data_[i0 * s[0] + (nd > 1 ? i1 * s[1] : 0) +
                 (nd > 2 ? i2 * s[2] : 0) + (nd > 3 ? i3 * s[3] : 0)];
  }
  T& at(std::size_t i0, std::size_t i1 = 0, std::size_t i2 = 0,
        std::size_t i3 = 0) {
    return const_cast<T&>(std::as_const(*this).at(i0, i1, i2, i3));
  }

  std::vector<T>&& take() && { return std::move(data_); }

 private:
  Shape shape_;
  std::vector<T> data_;
};

}  // namespace eblcio
