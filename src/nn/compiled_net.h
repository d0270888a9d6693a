#pragma once
// CompiledNet: a served nn::Sequential lowered once, at deploy time, into
// a flat op list with prepacked weights. Every serve-path forward (the
// master's HA front and local slices, the worker's deployments) runs one;
// training and evaluation keep the Sequential.
//
// Op set:
//   - Conv2d [+ LeakyReLU | ReLU] [+ MaxPool2d(2)] → one fused op: a direct
//     kernel with output channels in vector lanes over weights prepacked as
//     [cin·k·k][cout lanes], a row block of output pixels held in
//     registers, and bias + activation + 2×2 pool applied before the store.
//     Lowered when the conv has stride 1 and its patch fits every GEMM
//     tier's kc (so the GEMM path reduces it as one chain); otherwise the
//     conv stays a generic step.
//   - [Flatten +] Dense → one op over weights prepacked as [in][out lanes].
//   - Anything else (QuantConv2d / QuantDense on int8_compute deploys, a
//     lone pool or activation, …) → a generic step calling the owned
//     layer's ForwardInference.
//
// Bitwise contract: Forward's output equals Sequential::Forward(x, false)
// on the same SIMD tier, bit for bit, at any batch size and thread count
// (see nn/direct_kernels.h for the per-element arithmetic). Rows are
// independent: work is parallel over rows and no row reads another.
// Steady-state forwards allocate nothing (pooled activations, grow-only
// per-thread scratch).

#include <cstdint>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "nn/direct_kernels.h"
#include "nn/sequential.h"

namespace fluid::nn {

class CompiledNet {
 public:
  /// An empty plan (identity); assign a compiled model before serving.
  CompiledNet() = default;
  /// Lower `model` (taken over: generic steps run its layers).
  explicit CompiledNet(Sequential model);

  /// Inference forward over a borrowed input (read, never modified).
  core::Tensor Forward(const core::Tensor& input);
  /// Inference forward that consumes the input and recycles its storage.
  core::Tensor Forward(core::Tensor&& input);

  /// The op list, one op per line (e.g. "conv3x3 1->16 +leaky +pool2").
  std::string ToString() const;

 private:
  struct Op {
    enum class Kind : std::uint8_t { kConv, kDense, kLayer };
    Kind kind = Kind::kLayer;
    Layer* layer = nullptr;  // kLayer: a layer owned by model_
    // kConv
    std::int64_t cin = 0, kernel = 0, pad = 0;
    DirectAct act = DirectAct::kNone;
    float slope = 0.0F;
    bool pool = false;
    // kDense
    bool flatten = false;
    // kConv and kDense: output width, prepacked [reduction][out_pad]
    // weights and zero-padded bias.
    std::int64_t in_features = 0, out = 0, out_pad = 0;
    std::vector<float> w, bias;
  };

  core::Tensor Run(const core::Tensor* borrowed, core::Tensor&& owned);
  core::Tensor RunConv(const Op& op, const DirectKernels& kern,
                       const core::Tensor& in) const;
  core::Tensor RunDense(const Op& op, const DirectKernels& kern,
                        std::int64_t kc, const core::Tensor& in) const;

  Sequential model_;
  std::vector<Op> ops_;
};

}  // namespace fluid::nn
