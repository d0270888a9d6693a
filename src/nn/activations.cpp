#include "nn/activations.h"

#include <span>
#include <sstream>
#include <utility>

#include "core/error.h"

namespace fluid::nn {

namespace {

// Both activations are selects over values computed unconditionally, so
// they compile to vector compare + blend rather than a branch on each
// value's sign (which mispredicts on real activations). The results are
// those of the ternaries as written: NaN fails `v > 0` and takes the
// second operand, ±0 and denormals likewise.
float Relu(float v) { return v > 0.0F ? v : 0.0F; }

struct Leaky {
  float slope;
  float operator()(float v) const {
    const float leak = slope * v;
    return v > 0.0F ? v : leak;
  }
};

// dst[i] = f(src[i]); dst may be src. Blocks have a fixed trip count and
// are read into a local before any store, so the compiler vectorizes each
// block without alias checks; a scalar loop finishes the tail.
template <typename F>
void Map(std::span<const float> src, std::span<float> dst, F f) {
  constexpr std::size_t kBlock = 16;
  const std::size_t n = src.size();
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    float v[kBlock];
    for (std::size_t j = 0; j < kBlock; ++j) v[j] = src[i + j];
    for (std::size_t j = 0; j < kBlock; ++j) dst[i + j] = f(v[j]);
  }
  for (; i < n; ++i) dst[i] = f(src[i]);
}

}  // namespace

core::Tensor ReLU::Forward(const core::Tensor& input, bool training) {
  core::Tensor output(input.shape());
  Map(input.data(), output.data(), Relu);
  if (training) cached_input_ = input;
  return output;
}

core::Tensor ReLU::ForwardInference(core::Tensor&& input) {
  Map(input.data(), input.data(), Relu);
  return std::move(input);
}

core::Tensor ReLU::Backward(const core::Tensor& grad_output) {
  FLUID_CHECK_MSG(!cached_input_.empty(),
                  "ReLU::Backward without training Forward");
  FLUID_CHECK_MSG(grad_output.shape() == cached_input_.shape(),
                  "ReLU::Backward grad shape mismatch");
  core::Tensor grad_input(grad_output.shape());
  auto in = cached_input_.data();
  auto go = grad_output.data();
  auto gi = grad_input.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    gi[i] = in[i] > 0.0F ? go[i] : 0.0F;
  }
  return grad_input;
}

LeakyReLU::LeakyReLU(float slope) : slope_(slope) {
  FLUID_CHECK_MSG(slope >= 0.0F && slope < 1.0F,
                  "LeakyReLU slope must be in [0, 1)");
}

core::Tensor LeakyReLU::Forward(const core::Tensor& input, bool training) {
  core::Tensor output(input.shape());
  Map(input.data(), output.data(), Leaky{slope_});
  if (training) cached_input_ = input;
  return output;
}

core::Tensor LeakyReLU::ForwardInference(core::Tensor&& input) {
  Map(input.data(), input.data(), Leaky{slope_});
  return std::move(input);
}

core::Tensor LeakyReLU::Backward(const core::Tensor& grad_output) {
  FLUID_CHECK_MSG(!cached_input_.empty(),
                  "LeakyReLU::Backward without training Forward");
  FLUID_CHECK_MSG(grad_output.shape() == cached_input_.shape(),
                  "LeakyReLU::Backward grad shape mismatch");
  core::Tensor grad_input(grad_output.shape());
  auto in = cached_input_.data();
  auto go = grad_output.data();
  auto gi = grad_input.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    gi[i] = in[i] > 0.0F ? go[i] : slope_ * go[i];
  }
  return grad_input;
}

std::string LeakyReLU::ToString() const {
  std::ostringstream os;
  os << "LeakyReLU(" << slope_ << ")";
  return os.str();
}

}  // namespace fluid::nn
