// AVX-512 direct kernels: 16 output channels per zmm, register tiles of up
// to 2 conv rows × 12 columns (24 accumulators). Compiled for avx512f by a
// target pragma so the object builds at any -march; only selected when the
// GEMM dispatch resolved its avx512 tier (CPUID + FLUID_SIMD).

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "nn/direct_kernels.h"

#pragma GCC push_options
#pragma GCC target("avx512f")

#include "nn/direct_kernels_impl.h"

namespace fluid::nn {

namespace {

struct V512 {
  using T = __m512;
  static constexpr int kLanes = 16;
  static constexpr int kMaxCols = 12;

  static T Zero() { return _mm512_setzero_ps(); }
  static T Set1(float s) { return _mm512_set1_ps(s); }
  static T Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, T v) { _mm512_storeu_ps(p, v); }
  static T Fma(T a, T b, T c) { return _mm512_fmadd_ps(a, b, c); }
  static T Add(T a, T b) { return _mm512_add_ps(a, b); }
  static T Mul(T a, T b) { return _mm512_mul_ps(a, b); }
  static T SelectPositive(T v, T other) {
    const __mmask16 gt = _mm512_cmp_ps_mask(v, Zero(), _CMP_GT_OQ);
    return _mm512_mask_blend_ps(gt, other, v);
  }
  static T KeepGreater(T v, T best) {
    const __mmask16 gt = _mm512_cmp_ps_mask(v, best, _CMP_GT_OQ);
    return _mm512_mask_blend_ps(gt, best, v);
  }
};

using Impl = direct_detail::Direct<V512>;

}  // namespace

extern const DirectKernels kDirectAvx512 = {"avx512", Impl::Conv, Impl::Dense};

}  // namespace fluid::nn

#pragma GCC pop_options

#endif  // x86
