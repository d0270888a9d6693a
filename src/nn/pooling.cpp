#include "nn/pooling.h"

#include <sstream>

#include "core/error.h"

namespace fluid::nn {

namespace {

// Every window starts from this floor and keeps a value only when it
// compares greater, so NaNs and values at or below it never win.
constexpr float kFloor = -3.4e38F;

void Pool2x2(const float* in, std::int64_t planes, std::int64_t height,
             std::int64_t width, float* out) {
  // Straight-line 2x2 windows over a row pair: the same four loads in the
  // same order, each kept only when `v > best` from the same floor, so a
  // NaN, a tie or a value below the floor resolves exactly as in the
  // generic loop. Floor division drops an odd last row and column.
  const std::int64_t out_h = height / 2;
  const std::int64_t out_w = width / 2;
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* plane = in + p * height * width;
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      const float* r0 = plane + 2 * oy * width;
      const float* r1 = r0 + width;
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        float best = kFloor;
        best = r0[2 * ox] > best ? r0[2 * ox] : best;
        best = r0[2 * ox + 1] > best ? r0[2 * ox + 1] : best;
        best = r1[2 * ox] > best ? r1[2 * ox] : best;
        best = r1[2 * ox + 1] > best ? r1[2 * ox + 1] : best;
        *out++ = best;
      }
    }
  }
}

}  // namespace

MaxPool2d::MaxPool2d(std::int64_t window) : window_(window) {
  FLUID_CHECK_MSG(window > 0, "MaxPool2d window must be positive");
}

core::Tensor MaxPool2d::Forward(const core::Tensor& input, bool training) {
  const auto& s = input.shape();
  FLUID_CHECK_MSG(s.rank() == 4, "MaxPool2d expects NCHW input");
  const std::int64_t batch = s[0], channels = s[1], height = s[2],
                     width = s[3];
  const std::int64_t out_h = height / window_;
  const std::int64_t out_w = width / window_;
  FLUID_CHECK_MSG(out_h > 0 && out_w > 0,
                  "MaxPool2d window larger than input");

  core::Tensor output = core::AcquireTensor({batch, channels, out_h, out_w});
  if (!training && window_ == 2) {
    Pool2x2(input.data().data(), batch * channels, height, width,
            output.data().data());
    return output;
  }
  // The argmax indices exist only for Backward; inference skips the
  // whole side buffer (it was an allocation per serve-path call).
  if (training) {
    cached_in_shape_ = s;
    cached_argmax_.assign(static_cast<std::size_t>(output.numel()), -1);
  }

  auto in = input.data();
  auto out = output.data();
  std::size_t o = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const std::int64_t plane = (n * channels + c) * height * width;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox, ++o) {
          float best = kFloor;
          std::int64_t best_idx = -1;
          for (std::int64_t wy = 0; wy < window_; ++wy) {
            const std::int64_t iy = oy * window_ + wy;
            for (std::int64_t wx = 0; wx < window_; ++wx) {
              const std::int64_t ix = ox * window_ + wx;
              const std::int64_t idx = plane + iy * width + ix;
              const float v = in[static_cast<std::size_t>(idx)];
              if (v > best) {
                best = v;
                best_idx = idx;
              }
            }
          }
          out[o] = best;
          if (training) cached_argmax_[o] = best_idx;
        }
      }
    }
  }
  return output;
}

core::Tensor MaxPool2d::Backward(const core::Tensor& grad_output) {
  FLUID_CHECK_MSG(!cached_argmax_.empty(),
                  "MaxPool2d::Backward without training Forward");
  FLUID_CHECK_MSG(static_cast<std::size_t>(grad_output.numel()) ==
                      cached_argmax_.size(),
                  "MaxPool2d::Backward grad size mismatch");
  core::Tensor grad_input(cached_in_shape_);
  auto go = grad_output.data();
  auto gi = grad_input.data();
  for (std::size_t i = 0; i < cached_argmax_.size(); ++i) {
    gi[static_cast<std::size_t>(cached_argmax_[i])] += go[i];
  }
  return grad_input;
}

std::string MaxPool2d::ToString() const {
  std::ostringstream os;
  os << "MaxPool2d(" << window_ << "x" << window_ << ")";
  return os.str();
}

}  // namespace fluid::nn
