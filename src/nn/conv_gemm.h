#pragma once
// Shared conv↔GEMM lowering helpers behind nn::Conv2d and
// slim::SlimConv2d. Both layers run the same im2col-lowered GEMMs over a
// packed [out_ch, patch] weight matrix; the slimmable layer just packs a
// channel slice first and scatters gradients back with a stride. Keeping
// the forward fusion and the deterministic chunked-accumulation
// scaffolding here means the two layers cannot drift.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace fluid::nn {

/// Upper bound on samples per fused forward group. Groups run
/// sequentially on the caller; each group lowers into one fused
/// [patch, group·area] buffer and multiplies in a single
/// [out_ch, group·area] GEMM, so batches up to the group size (serving
/// and the default training batch) are exactly one GEMM. Parallelism
/// comes from inside the group: batch-parallel im2col/scatter and the
/// GEMM's (row block × column group) tasks — a lone wide GEMM spreads
/// across cores on its own. The actual group size also honours
/// kConvFusedBudgetFloats, so spatially large shapes shrink the group
/// instead of pinning a huge grow-only scratch. Group boundaries depend
/// only on the problem shape (never the thread count), and per-element
/// accumulation order is grouping-invariant, so results are bitwise
/// deterministic.
inline constexpr std::int64_t kConvFusedBatch = 64;

/// Float budget for one group's fused scratch (cols + fused output,
/// (patch + out_ch)·area floats per sample): 8M floats ≈ 32 MB. The
/// scratch is grow-only and thread-lifetime, so this caps the resident
/// per-thread footprint for any conv shape.
inline constexpr std::int64_t kConvFusedBudgetFloats = std::int64_t{8} << 20;

/// Samples per backward accumulation chunk (see ConvBackwardChunked).
inline constexpr std::int64_t kConvBackwardChunk = 4;

/// Caller-owned scratch for ConvForwardFused: the fused im2col buffer and
/// the pre-scatter GEMM output. Both are grown on demand (grow-only, like
/// the thread-local default) so a reused ConvScratch stops allocating
/// after the first group of each shape. Callers that want explicit
/// lifetime control (e.g. to bound scratch to a request instead of a
/// thread) pass one; passing nullptr uses the per-thread default.
struct ConvScratch {
  std::vector<float> cols;   // [patch, group·area] lowered columns
  std::vector<float> fused;  // [out_ch, group·area] pre-scatter output
};

/// Fused-batch conv forward over a packed channel slice.
///   input:  [batch, in_ch, height, width] contiguous.
///   weight: packed [out_ch, in_ch·kernel²] row-major.
///   bias:   [out_ch] (callers with sliced bias pass an offset pointer).
///   output: [batch, out_ch, out_h, out_w] contiguous, overwritten with
///           conv(input, weight) + bias.
///   scratch: caller-owned working buffers, or nullptr for the reusable
///           per-thread default (either way, steady-state repeat shapes
///           allocate nothing).
void ConvForwardFused(std::span<const float> input, std::int64_t batch,
                      std::int64_t in_ch, std::int64_t height,
                      std::int64_t width, std::int64_t kernel,
                      std::int64_t stride, std::int64_t pad,
                      std::int64_t out_ch, const float* weight,
                      const float* bias, std::span<float> output,
                      ConvScratch* scratch = nullptr);

/// Deterministic chunked conv backward, shared by both conv layers: the
/// batch is cut into fixed kConvBackwardChunk-sample chunks, each chunk
/// lowers its samples and accumulates private dW [out_ch, patch] / db
/// [out_ch] partials (db in double), the input gradient is scatter-added
/// per sample via col2im, and `reduce_chunk(gw_chunk, gb_chunk)` is then
/// invoked once per chunk *in chunk order* on the calling thread so the
/// caller's gradient accumulation is bit-reproducible at any thread count.
///   input / grad_output: [batch, in_ch|out_ch, …] contiguous.
///   weight: packed [out_ch, patch] (same matrix the forward used).
///   grad_input: zero-initialised [batch, in_ch, height, width]; receives
///               the scatter-added input gradient.
void ConvBackwardChunked(
    std::span<const float> input, std::span<const float> grad_output,
    std::int64_t batch, std::int64_t in_ch, std::int64_t height,
    std::int64_t width, std::int64_t kernel, std::int64_t stride,
    std::int64_t pad, std::int64_t out_ch, const float* weight,
    std::span<float> grad_input,
    const std::function<void(const float* gw_chunk, const double* gb_chunk)>&
        reduce_chunk);

}  // namespace fluid::nn
