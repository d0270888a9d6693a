#include "core/shape.h"

#include <sstream>

#include "core/error.h"

namespace fluid::core {

void Shape::Init(std::span<const std::int64_t> dims) {
  FLUID_CHECK_MSG(dims.size() <= kMaxRank, "Shape rank exceeds kMaxRank");
  rank_ = dims.size();
  for (std::size_t i = 0; i < rank_; ++i) {
    FLUID_CHECK_MSG(dims[i] >= 0, "Shape extents must be non-negative");
    dims_[i] = dims[i];
  }
}

Shape::Shape(std::initializer_list<std::int64_t> dims) {
  Init({dims.begin(), dims.size()});
}

Shape::Shape(const std::vector<std::int64_t>& dims) { Init(dims); }

Shape::Shape(std::span<const std::int64_t> dims) { Init(dims); }

std::int64_t Shape::dim(std::int64_t axis) const {
  const auto r = static_cast<std::int64_t>(rank());
  if (axis < 0) axis += r;
  FLUID_CHECK_MSG(axis >= 0 && axis < r, "Shape::dim axis out of range");
  return dims_[static_cast<std::size_t>(axis)];
}

std::int64_t Shape::numel() const {
  std::int64_t n = 1;
  for (std::size_t i = 0; i < rank_; ++i) n *= dims_[i];
  return n;
}

StatusOr<std::int64_t> CheckedNumel(std::span<const std::int64_t> dims) {
  std::int64_t n = 1;
  for (const std::int64_t d : dims) {
    if (d < 0) return Status::DataLoss("shape has a negative dim");
    if (__builtin_mul_overflow(n, d, &n)) {
      return Status::DataLoss("shape element count overflows int64");
    }
  }
  return n;
}

std::vector<std::int64_t> Shape::Strides() const {
  std::vector<std::int64_t> strides(rank(), 1);
  for (std::size_t i = rank(); i-- > 1;) {
    strides[i - 1] = strides[i] * dims_[i];
  }
  return strides;
}

std::int64_t Shape::Offset(const std::vector<std::int64_t>& index) const {
  FLUID_CHECK_MSG(index.size() == rank(), "index rank mismatch");
  std::int64_t offset = 0;
  std::int64_t stride = 1;
  for (std::size_t i = rank(); i-- > 0;) {
    FLUID_CHECK_MSG(index[i] >= 0 && index[i] < dims_[i],
                    "index out of bounds");
    offset += index[i] * stride;
    stride *= dims_[i];
  }
  return offset;
}

std::string Shape::ToString() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < rank_; ++i) {
    if (i) os << ", ";
    os << dims_[i];
  }
  os << "]";
  return os.str();
}

}  // namespace fluid::core
