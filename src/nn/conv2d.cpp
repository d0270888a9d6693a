#include "nn/conv2d.h"

#include <sstream>

#include "core/error.h"
#include "nn/conv_gemm.h"
#include "nn/im2col.h"

namespace fluid::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               core::Rng& rng, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      name_(std::move(name)),
      weight_(core::Tensor::KaimingUniform(
          {out_channels, in_channels, kernel, kernel}, rng,
          in_channels * kernel * kernel)),
      bias_(core::Tensor({out_channels})),
      weight_grad_(core::Tensor({out_channels, in_channels, kernel, kernel})),
      bias_grad_(core::Tensor({out_channels})) {
  FLUID_CHECK_MSG(in_channels > 0 && out_channels > 0 && kernel > 0,
                  "Conv2d: dimensions must be positive");
}

core::Tensor Conv2d::Forward(const core::Tensor& input, bool training) {
  const auto& s = input.shape();
  FLUID_CHECK_MSG(s.rank() == 4 && s[1] == in_channels_,
                  "Conv2d: expected input [N," + std::to_string(in_channels_) +
                      ",H,W], got " + s.ToString());
  const std::int64_t batch = s[0], height = s[2], width = s[3];
  const std::int64_t out_h = ConvOutExtent(height, kernel_, stride_, pad_);
  const std::int64_t out_w = ConvOutExtent(width, kernel_, stride_, pad_);

  // Pooled output (the fused kernel's bias scatter writes every element).
  core::Tensor output =
      core::AcquireTensor({batch, out_channels_, out_h, out_w});
  // Fused-batch lowering: one [Cout, group·area] GEMM per fusion group
  // (see conv_gemm.h); deterministic at any thread count.
  ConvForwardFused(input.data(), batch, in_channels_, height, width, kernel_,
                   stride_, pad_, out_channels_, weight_.data().data(),
                   bias_.data().data(), output.data());
  if (training) cached_input_ = input;
  return output;
}

core::Tensor Conv2d::Backward(const core::Tensor& grad_output) {
  FLUID_CHECK_MSG(!cached_input_.empty(),
                  "Conv2d::Backward without training Forward");
  const auto& in_shape = cached_input_.shape();
  const std::int64_t batch = in_shape[0], height = in_shape[2],
                     width = in_shape[3];
  const std::int64_t out_h = ConvOutExtent(height, kernel_, stride_, pad_);
  const std::int64_t out_w = ConvOutExtent(width, kernel_, stride_, pad_);
  const std::int64_t patch = in_channels_ * kernel_ * kernel_;
  FLUID_CHECK_MSG(grad_output.shape() ==
                      core::Shape({batch, out_channels_, out_h, out_w}),
                  "Conv2d::Backward grad shape mismatch");

  core::Tensor grad_input(in_shape);
  // Shared deterministic chunked-accumulation scaffolding (conv_gemm.h);
  // the reduce callback folds each chunk's partials into the dense
  // gradient accumulators in chunk order.
  ConvBackwardChunked(
      cached_input_.data(), grad_output.data(), batch, in_channels_, height,
      width, kernel_, stride_, pad_, out_channels_, weight_.data().data(),
      grad_input.data(),
      [&](const float* gw_chunk, const double* gb_chunk) {
        float* dst = weight_grad_.data().data();
        for (std::int64_t j = 0; j < out_channels_ * patch; ++j) {
          dst[j] += gw_chunk[j];
        }
        for (std::int64_t c = 0; c < out_channels_; ++c) {
          bias_grad_.data()[static_cast<std::size_t>(c)] +=
              static_cast<float>(gb_chunk[c]);
        }
      });
  return grad_input;
}

std::vector<ParamRef> Conv2d::Params() {
  return {{name_ + ".weight", &weight_, &weight_grad_},
          {name_ + ".bias", &bias_, &bias_grad_}};
}

std::string Conv2d::ToString() const {
  std::ostringstream os;
  os << "Conv2d(" << in_channels_ << "->" << out_channels_ << ", k=" << kernel_
     << ", s=" << stride_ << ", p=" << pad_ << ")";
  return os.str();
}

}  // namespace fluid::nn
