// AVX2+FMA direct kernels: 8 output channels per ymm (a 16-lane packed
// group is two passes), register tiles of up to 2 conv rows × 6 columns
// (12 accumulators). Compiled for avx2,fma by a target pragma so the
// object builds at any -march; only selected when the GEMM dispatch
// resolved its avx2 tier.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "nn/direct_kernels.h"

#pragma GCC push_options
#pragma GCC target("avx2,fma")

#include "nn/direct_kernels_impl.h"

namespace fluid::nn {

namespace {

struct V256 {
  using T = __m256;
  static constexpr int kLanes = 8;
  static constexpr int kMaxCols = 6;

  static T Zero() { return _mm256_setzero_ps(); }
  static T Set1(float s) { return _mm256_set1_ps(s); }
  static T Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, T v) { _mm256_storeu_ps(p, v); }
  static T Fma(T a, T b, T c) { return _mm256_fmadd_ps(a, b, c); }
  static T Add(T a, T b) { return _mm256_add_ps(a, b); }
  static T Mul(T a, T b) { return _mm256_mul_ps(a, b); }
  static T SelectPositive(T v, T other) {
    return _mm256_blendv_ps(other, v, _mm256_cmp_ps(v, Zero(), _CMP_GT_OQ));
  }
  static T KeepGreater(T v, T best) {
    return _mm256_blendv_ps(best, v, _mm256_cmp_ps(v, best, _CMP_GT_OQ));
  }
};

using Impl = direct_detail::Direct<V256>;

}  // namespace

extern const DirectKernels kDirectAvx2 = {"avx2", Impl::Conv, Impl::Dense};

}  // namespace fluid::nn

#pragma GCC pop_options

#endif  // x86
