#pragma once
// Direct (im2col-free) kernels behind nn::CompiledNet, one set per GEMM
// dispatch tier (avx512 / avx2 / scalar — the same CPUID + FLUID_SIMD
// resolution core::Gemm uses, so a compiled net and the Sequential it was
// lowered from always run on the same tier).
//
// Both kernels reproduce, per output element, the exact arithmetic of the
// im2col + core::Gemm + epilogue path they replace: an FMA chain from 0
// over the reduction in its natural order (the conv patch in (cin, ky, kx)
// order, padded taps kept as zero products; the Dense input in flatten
// order, split into the active tier's kc chunks), then (0 + acc) + bias,
// the activation as `v > 0 ? v : slope·v` (or `: 0`), and the 2×2 pool as
// `v > best` from the −3.4e38 floor. Logits therefore match
// Sequential::Forward bit for bit on the same tier.

#include <cstdint>

namespace fluid::core::simd {
struct GemmKernel;
}

namespace fluid::nn {

/// Activation fused into a direct conv's epilogue.
enum class DirectAct : std::uint8_t { kNone, kRelu, kLeaky };

/// Weights of both kernels are prepacked output-channel-minor: element
/// (p, o) lives at w[p·out_pad + o], out_pad a multiple of kDirectLanes
/// (pad lanes hold zero weight and zero bias and are never stored).
inline constexpr std::int64_t kDirectLanes = 16;

/// One sample of a stride-1 square conv with fused epilogue.
struct DirectConvArgs {
  /// Zero-bordered planar input [cin][hp][wp] (the conv's padding is
  /// already materialised, so every tap is an in-bounds load).
  const float* in = nullptr;
  std::int64_t cin = 0, hp = 0, wp = 0;
  std::int64_t kernel = 0;
  const float* w = nullptr;     // [cin·k·k][out_pad]
  const float* bias = nullptr;  // [out_pad]
  std::int64_t cout = 0, out_pad = 0;
  DirectAct act = DirectAct::kNone;
  float slope = 0.0F;
  /// Fold a 2×2/2 max pool into the store (floor division drops an odd
  /// last conv row/column, which is then never computed).
  bool pool = false;
  /// Conv output extent (before pooling).
  std::int64_t oh = 0, ow = 0;
  /// NCHW output planes of this sample: [cout][oh'][ow'], where (oh', ow')
  /// is the pooled extent when `pool`.
  float* out = nullptr;
};

/// Rows of a Dense layer: out[n][o] = Σ_p in[n][p]·w[p][o] + bias[o].
struct DirectDenseArgs {
  const float* in = nullptr;  // [rows][in_features]
  std::int64_t rows = 0, in_features = 0;
  const float* w = nullptr;     // [in_features][out_pad]
  const float* bias = nullptr;  // [out_pad]
  std::int64_t out_features = 0, out_pad = 0;
  /// Reduction chunk of the active GEMM tier: core::Gemm sums a K > kc
  /// product as ((0 + chain₀) + chain₁) + …, and so does this kernel.
  std::int64_t kc = 0;
  float* out = nullptr;  // [rows][out_features]
};

struct DirectKernels {
  const char* name;  // the GEMM tier's name
  void (*conv)(const DirectConvArgs& args);
  void (*dense)(const DirectDenseArgs& args);
};

/// The direct kernels matching a GEMM dispatch tier.
const DirectKernels& DirectKernelsFor(const core::simd::GemmKernel& gemm);

}  // namespace fluid::nn
