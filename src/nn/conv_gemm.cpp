#include "nn/conv_gemm.h"

#include <algorithm>
#include <vector>

#include "core/error.h"
#include "core/gemm.h"
#include "core/parallel.h"
#include "nn/im2col.h"

namespace fluid::nn {

namespace {

// Caller-side fused-forward scratch, reused across calls. Bound to local
// references before any parallel region: a thread_local NAME inside a
// lambda is not captured — it resolves to the executing worker's (empty)
// instance — while a local reference to it is captured and keeps pointing
// at the caller's buffer.
thread_local std::vector<float> tl_fused_cols;
thread_local std::vector<float> tl_fused_out;

}  // namespace

void ConvForwardFused(std::span<const float> input, std::int64_t batch,
                      std::int64_t in_ch, std::int64_t height,
                      std::int64_t width, std::int64_t kernel,
                      std::int64_t stride, std::int64_t pad,
                      std::int64_t out_ch, const float* weight,
                      const float* bias, std::span<float> output,
                      ConvScratch* scratch) {
  const std::int64_t out_h = ConvOutExtent(height, kernel, stride, pad);
  const std::int64_t out_w = ConvOutExtent(width, kernel, stride, pad);
  const std::int64_t patch = in_ch * kernel * kernel;
  const std::int64_t area = out_h * out_w;
  const std::int64_t in_plane = in_ch * height * width;
  FLUID_CHECK_MSG(static_cast<std::int64_t>(input.size()) ==
                      batch * in_plane,
                  "ConvForwardFused input size mismatch");
  FLUID_CHECK_MSG(static_cast<std::int64_t>(output.size()) ==
                      batch * out_ch * area,
                  "ConvForwardFused output size mismatch");

  // Sequential fusion groups (kConvFusedBatch caps the fused working
  // set); each group is ONE wide GEMM. Every stage inside a group is
  // parallel on its own — im2col over samples, the GEMM over its
  // (row block × column group) tasks, the bias scatter over samples — so
  // no batch-level chunking is needed and a single group still uses
  // every core.
  // Group size: as many samples as the float budget allows, capped at
  // kConvFusedBatch. Depends only on the problem shape, so group
  // boundaries are thread-count-independent.
  const std::int64_t per_sample_floats = (patch + out_ch) * area;
  const std::int64_t group =
      std::clamp(kConvFusedBudgetFloats / per_sample_floats,
                 std::int64_t{1}, kConvFusedBatch);

  auto& cols = scratch != nullptr ? scratch->cols : tl_fused_cols;
  auto& fused = scratch != nullptr ? scratch->fused : tl_fused_out;
  for (std::int64_t lo = 0; lo < batch; lo += group) {
    const std::int64_t hi = std::min(lo + group, batch);
    const std::int64_t cnt = hi - lo;
    const std::int64_t ncols = cnt * area;
    core::EnsureScratch(cols, patch * ncols);
    core::EnsureScratch(fused, out_ch * ncols);
    Im2ColFused(input.subspan(static_cast<std::size_t>(lo * in_plane),
                              static_cast<std::size_t>(cnt * in_plane)),
                cnt, in_ch, height, width, 0, in_ch, kernel, stride, pad,
                std::span<float>(cols.data(),
                                 static_cast<std::size_t>(patch * ncols)));
    // fused [out_ch, cnt·area] = W [out_ch, patch] × cols [patch, cnt·area]
    core::Gemm(false, false, out_ch, ncols, patch, 1.0F, weight, patch,
               cols.data(), ncols, 0.0F, fused.data(), ncols);
    // Scatter the channel-major fused rows back into per-sample
    // [out_ch, area] planes, adding bias on the way out.
    core::ParallelForEach(0, cnt, 1, [&](std::int64_t i) {
      float* out_sample = output.data() + (lo + i) * out_ch * area;
      for (std::int64_t c = 0; c < out_ch; ++c) {
        const float b = bias[c];
        const float* src = fused.data() + c * ncols + i * area;
        float* dst = out_sample + c * area;
        for (std::int64_t j = 0; j < area; ++j) dst[j] = src[j] + b;
      }
    });
  }
}

void ConvBackwardChunked(
    std::span<const float> input, std::span<const float> grad_output,
    std::int64_t batch, std::int64_t in_ch, std::int64_t height,
    std::int64_t width, std::int64_t kernel, std::int64_t stride,
    std::int64_t pad, std::int64_t out_ch, const float* weight,
    std::span<float> grad_input,
    const std::function<void(const float* gw_chunk, const double* gb_chunk)>&
        reduce_chunk) {
  const std::int64_t out_h = ConvOutExtent(height, kernel, stride, pad);
  const std::int64_t out_w = ConvOutExtent(width, kernel, stride, pad);
  const std::int64_t patch = in_ch * kernel * kernel;
  const std::int64_t area = out_h * out_w;
  const std::int64_t in_plane = in_ch * height * width;
  const std::int64_t per_sample = patch * area;
  FLUID_CHECK_MSG(static_cast<std::int64_t>(input.size()) ==
                      batch * in_plane,
                  "ConvBackwardChunked input size mismatch");
  FLUID_CHECK_MSG(static_cast<std::int64_t>(grad_output.size()) ==
                      batch * out_ch * area,
                  "ConvBackwardChunked grad_output size mismatch");
  FLUID_CHECK_MSG(static_cast<std::int64_t>(grad_input.size()) ==
                      batch * in_plane,
                  "ConvBackwardChunked grad_input size mismatch");

  // Chunks of the batch get private partial accumulators that are reduced
  // in chunk order afterwards (fixed chunking → thread-count-independent
  // sums). The grad_input planes are per-sample disjoint, written in place.
  const std::int64_t chunks = core::NumChunks(0, batch, kConvBackwardChunk);
  std::vector<float> gw(static_cast<std::size_t>(chunks * out_ch * patch));
  std::vector<double> gb(static_cast<std::size_t>(chunks * out_ch));

  core::ParallelForChunks(
      0, batch, kConvBackwardChunk,
      [&](std::int64_t chunk, std::int64_t lo, std::int64_t hi) {
        const std::int64_t cnt = hi - lo;
        float* gw_chunk = gw.data() + chunk * out_ch * patch;
        double* gb_chunk = gb.data() + chunk * out_ch;
        thread_local std::vector<float> cols;
        thread_local std::vector<float> grad_cols;
        core::EnsureScratch(cols, cnt * per_sample);
        core::EnsureScratch(grad_cols, cnt * per_sample);
        Im2ColBatched(
            input.subspan(static_cast<std::size_t>(lo * in_plane),
                          static_cast<std::size_t>(cnt * in_plane)),
            cnt, in_ch, height, width, 0, in_ch, kernel, stride, pad,
            std::span<float>(cols.data(),
                             static_cast<std::size_t>(cnt * per_sample)));
        for (std::int64_t n = lo; n < hi; ++n) {
          const float* sample_cols = cols.data() + (n - lo) * per_sample;
          const float* go_sample =
              grad_output.data() + n * out_ch * area;
          // dW_chunk [out_ch, patch] += gO [out_ch, area] × colsᵀ [area, patch]
          core::Gemm(false, true, out_ch, patch, area, 1.0F, go_sample, area,
                     sample_cols, area, n == lo ? 0.0F : 1.0F, gw_chunk,
                     patch);
          // db_chunk += row sums of gO
          for (std::int64_t c = 0; c < out_ch; ++c) {
            double s = 0.0;
            const float* row = go_sample + c * area;
            for (std::int64_t i = 0; i < area; ++i) s += row[i];
            gb_chunk[c] += s;
          }
          // gCols [patch, area] = Wᵀ [patch, out_ch] × gO [out_ch, area]
          core::Gemm(true, false, patch, area, out_ch, 1.0F, weight, patch,
                     go_sample, area, 0.0F,
                     grad_cols.data() + (n - lo) * per_sample, area);
        }
        Col2ImBatched(
            std::span<const float>(grad_cols.data(),
                                   static_cast<std::size_t>(cnt * per_sample)),
            cnt, in_ch, height, width, 0, in_ch, kernel, stride, pad,
            grad_input.subspan(static_cast<std::size_t>(lo * in_plane),
                               static_cast<std::size_t>(cnt * in_plane)));
      });

  // Ordered reduction of the chunk partials on the calling thread.
  for (std::int64_t chunk = 0; chunk < chunks; ++chunk) {
    reduce_chunk(gw.data() + chunk * out_ch * patch,
                 gb.data() + chunk * out_ch);
  }
}

}  // namespace fluid::nn
