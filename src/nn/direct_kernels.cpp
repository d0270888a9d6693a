// Portable direct-kernel tier plus the tier lookup. The scalar traits are
// written like the GEMM's MicroScalar (`acc += x * w` over plain float
// arrays), so the compiler contracts the chain exactly as it does for the
// scalar GEMM tier and the two stay bitwise equal under any flags.

#include "nn/direct_kernels.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <utility>

#include "core/simd/gemm_kernel.h"

#include "nn/direct_kernels_impl.h"

namespace fluid::nn {

#if defined(__x86_64__) || defined(__i386__)
extern const DirectKernels kDirectAvx512;
extern const DirectKernels kDirectAvx2;
#endif

namespace {

struct VScalar {
  struct T {
    float v[16];
  };
  static constexpr int kLanes = 16;
  static constexpr int kMaxCols = 8;

  static T Zero() { return Set1(0.0F); }
  static T Set1(float s) {
    T t;
    for (float& x : t.v) x = s;
    return t;
  }
  static T Load(const float* p) {
    T t;
    for (int j = 0; j < kLanes; ++j) t.v[j] = p[j];
    return t;
  }
  static void Store(float* p, const T& t) {
    for (int j = 0; j < kLanes; ++j) p[j] = t.v[j];
  }
  static T Fma(const T& a, const T& b, T c) {
    for (int j = 0; j < kLanes; ++j) c.v[j] += a.v[j] * b.v[j];
    return c;
  }
  static T Add(T a, const T& b) {
    for (int j = 0; j < kLanes; ++j) a.v[j] = a.v[j] + b.v[j];
    return a;
  }
  static T Mul(T a, const T& b) {
    for (int j = 0; j < kLanes; ++j) a.v[j] = a.v[j] * b.v[j];
    return a;
  }
  static T SelectPositive(T v, const T& other) {
    for (int j = 0; j < kLanes; ++j) {
      v.v[j] = v.v[j] > 0.0F ? v.v[j] : other.v[j];
    }
    return v;
  }
  static T KeepGreater(const T& v, T best) {
    for (int j = 0; j < kLanes; ++j) {
      best.v[j] = v.v[j] > best.v[j] ? v.v[j] : best.v[j];
    }
    return best;
  }
};

using Impl = direct_detail::Direct<VScalar>;
const DirectKernels kDirectScalar = {"scalar", Impl::Conv, Impl::Dense};

}  // namespace

const DirectKernels& DirectKernelsFor(const core::simd::GemmKernel& gemm) {
  const std::string_view name = gemm.name;
#if defined(__x86_64__) || defined(__i386__)
  if (name == kDirectAvx512.name) return kDirectAvx512;
  if (name == kDirectAvx2.name) return kDirectAvx2;
#endif
  return kDirectScalar;
}

}  // namespace fluid::nn
