#pragma once
// Plain (non-slimmable) 2-D convolution layer, NCHW, square kernel.

#include <cstdint>
#include <string>

#include "core/rng.h"
#include "core/tensor.h"
#include "nn/layer.h"

namespace fluid::nn {

class Conv2d : public Layer {
 public:
  /// Weight shape [out_channels, in_channels, k, k]; bias [out_channels].
  /// Kaiming-uniform initialised from `rng`.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         core::Rng& rng, std::string name = "conv");

  core::Tensor Forward(const core::Tensor& input, bool training) override;
  core::Tensor Backward(const core::Tensor& grad_output) override;
  std::vector<ParamRef> Params() override;
  std::string Kind() const override { return "Conv2d"; }
  std::string ToString() const override;

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

  core::Tensor& weight() { return weight_; }
  core::Tensor& bias() { return bias_; }

 private:
  std::int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
  std::string name_;
  core::Tensor weight_, bias_;
  core::Tensor weight_grad_, bias_grad_;
  core::Tensor cached_input_;  // only kept when training
};

}  // namespace fluid::nn
