#pragma once
// Dense tensor shape: an ordered list of extents, row-major semantics.
//
// Extents live in a fixed inline array (kMaxRank) rather than a heap
// vector: tensors are created on the per-request serve path (pooled
// activations, wire decode, batch slices), and a heap-allocating Shape
// would put one malloc under every Tensor even when the data storage
// itself comes from the buffer pool. Rank 4 ([n, C, H, W]) is the deepest
// shape the library uses; 6 leaves headroom.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/error.h"

namespace fluid::core {

class Shape {
 public:
  /// Deepest representable shape. Constructing a deeper one throws.
  static constexpr std::size_t kMaxRank = 6;

  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);
  explicit Shape(const std::vector<std::int64_t>& dims);
  explicit Shape(std::span<const std::int64_t> dims);

  /// Number of axes.
  std::size_t rank() const { return rank_; }

  /// Extent of axis `axis` (supports negative axes, Python style).
  std::int64_t dim(std::int64_t axis) const;

  std::int64_t operator[](std::size_t axis) const { return dims_[axis]; }

  /// Total element count (1 for rank-0).
  std::int64_t numel() const;

  std::span<const std::int64_t> dims() const { return {dims_, rank_}; }

  /// Row-major strides, in elements.
  std::vector<std::int64_t> Strides() const;

  /// Flat offset of a multi-index; checked.
  std::int64_t Offset(const std::vector<std::int64_t>& index) const;

  bool operator==(const Shape& other) const {
    if (rank_ != other.rank_) return false;
    for (std::size_t i = 0; i < rank_; ++i) {
      if (dims_[i] != other.dims_[i]) return false;
    }
    return true;
  }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// "[2, 3, 28, 28]"
  std::string ToString() const;

 private:
  void Init(std::span<const std::int64_t> dims);

  std::int64_t dims_[kMaxRank] = {};
  std::size_t rank_ = 0;
};

/// Element count of a shape read off the wire, checked: DataLoss when a
/// dim is negative or the product overflows int64. Every decoder uses this
/// instead of Shape::numel() before trusting an untrusted shape.
StatusOr<std::int64_t> CheckedNumel(std::span<const std::int64_t> dims);

}  // namespace fluid::core
