#include "quant/quantize.h"

#include <cmath>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "core/buffer_pool.h"
#include "core/parallel.h"

namespace fluid::quant {

namespace {

#if defined(__AVX2__)
// Both vector loops below reproduce the scalar code bit for bit. MAXPS
// and MINPS return their SECOND operand when either input is NaN, so
// max(a, m) is exactly `a > m ? a : m` (a NaN `a` is ignored), and a max
// is order-free, so the lanes reduce to the scalar result.

float AbsMaxAvx2(const float* v, std::size_t n, std::size_t& done) {
  const __m256 sign = _mm256_set1_ps(-0.0F);
  __m256 m0 = _mm256_setzero_ps(), m1 = m0, m2 = m0, m3 = m0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    m0 = _mm256_max_ps(_mm256_andnot_ps(sign, _mm256_loadu_ps(v + i)), m0);
    m1 = _mm256_max_ps(_mm256_andnot_ps(sign, _mm256_loadu_ps(v + i + 8)), m1);
    m2 = _mm256_max_ps(_mm256_andnot_ps(sign, _mm256_loadu_ps(v + i + 16)), m2);
    m3 = _mm256_max_ps(_mm256_andnot_ps(sign, _mm256_loadu_ps(v + i + 24)), m3);
  }
  const __m256 m = _mm256_max_ps(_mm256_max_ps(m0, m1), _mm256_max_ps(m2, m3));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, m);
  float out = 0.0F;
  for (const float a : lanes) out = a > out ? a : out;
  done = i;
  return out;
}

// QuantizeValue on 8 lanes: clamp to the ±127 rails (a NaN lands on a
// rail here and is zeroed by the ordered mask), then round with the
// current MXCSR mode — the same ties-to-even lrintf uses.
__m256i QuantizeLanes(__m256 x, __m256 inv, __m256 lo, __m256 hi) {
  const __m256 r = _mm256_mul_ps(x, inv);
  const __m256 clamped = _mm256_min_ps(_mm256_max_ps(r, lo), hi);
  const __m256 ordered = _mm256_cmp_ps(r, r, _CMP_ORD_Q);
  return _mm256_and_si256(_mm256_cvtps_epi32(clamped),
                          _mm256_castps_si256(ordered));
}

std::size_t QuantizeAvx2(const float* src, std::size_t n, float inv_scale,
                         std::int8_t* dst) {
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-kQMax);
  const __m256 hi = _mm256_set1_ps(kQMax);
  // The 128-bit-lane packs interleave four int32 vectors by dword;
  // this permutation puts them back in element order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i a = QuantizeLanes(_mm256_loadu_ps(src + i), inv, lo, hi);
    const __m256i b = QuantizeLanes(_mm256_loadu_ps(src + i + 8), inv, lo, hi);
    const __m256i c = QuantizeLanes(_mm256_loadu_ps(src + i + 16), inv, lo, hi);
    const __m256i d = QuantizeLanes(_mm256_loadu_ps(src + i + 24), inv, lo, hi);
    const __m256i packed = _mm256_packs_epi16(_mm256_packs_epi32(a, b),
                                              _mm256_packs_epi32(c, d));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_permutevar8x32_epi32(packed, order));
  }
  return i;
}
#endif

}  // namespace

float AbsMaxScale(std::span<const float> values) {
  float m = 0.0F;
  std::size_t i = 0;
#if defined(__AVX2__)
  m = AbsMaxAvx2(values.data(), values.size(), i);
#endif
  for (; i < values.size(); ++i) {
    const float a = std::fabs(values[i]);
    if (a > m) m = a;  // NaN fails the compare and is ignored
  }
  if (m == 0.0F) return 1.0F;
  // A denormal absmax would make the scale itself denormal (or flush to
  // zero under -ffast-math-style FTZ), turning x/scale into inf; the
  // smallest normal float keeps the division finite and the round-trip
  // error below anything representable.
  return std::max(m / kQMax, std::numeric_limits<float>::min());
}

std::int8_t QuantizeValue(float x, float inv_scale) {
  const float r = x * inv_scale;
  if (!(r > -kQMax)) {
    // NaN fails both this compare and the next: map it to 0, not to a
    // clamp rail (lrintf(NaN) is unspecified).
    return std::isnan(r) ? std::int8_t{0} : std::int8_t{-127};
  }
  if (r > kQMax) return std::int8_t{127};
  return static_cast<std::int8_t>(std::lrintf(r));
}

void QuantizeSpan(std::span<const float> src, float scale,
                  std::span<std::int8_t> dst) {
  FLUID_CHECK_MSG(src.size() == dst.size(), "QuantizeSpan: size mismatch");
  FLUID_CHECK_MSG(scale > 0.0F, "QuantizeSpan: scale must be positive");
  const float inv = 1.0F / scale;
  core::ParallelFor(
      0, static_cast<std::int64_t>(src.size()), 4096,
      [&](std::int64_t lo, std::int64_t hi) {
        const float* in = src.data() + lo;
        std::int8_t* out = dst.data() + lo;
        const auto n = static_cast<std::size_t>(hi - lo);
        std::size_t i = 0;
#if defined(__AVX2__)
        i = QuantizeAvx2(in, n, inv, out);
#endif
        for (; i < n; ++i) out[i] = QuantizeValue(in[i], inv);
      });
}

QuantizedTensor QuantizeTensor(const core::Tensor& t, float scale) {
  QuantizedTensor q;
  q.shape = t.shape();
  q.scale = scale > 0.0F ? scale : AbsMaxScale(t.data());
  // Pooled payload (fully overwritten by QuantizeSpan); the wire path
  // recycles it via RecycleMessage after the frame is sent.
  q.data = core::PoolGet<std::int8_t>(static_cast<std::size_t>(t.numel()));
  QuantizeSpan(t.data(), q.scale, q.data);
  return q;
}

core::Tensor DequantizeTensor(const QuantizedTensor& q) {
  FLUID_CHECK_MSG(q.shape.numel() == q.numel(),
                  "DequantizeTensor: shape / payload mismatch");
  core::Tensor t = core::AcquireTensor(q.shape);
  auto out = t.data();
  const float scale = q.scale;
  core::ParallelFor(0, q.numel(), 4096, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] =
          scale * static_cast<float>(q.data[static_cast<std::size_t>(i)]);
    }
  });
  return t;
}

void QuantizedTensor::Encode(core::ByteWriter& w) const {
  w.WriteF32(scale);
  w.WriteU32(static_cast<std::uint32_t>(shape.rank()));
  for (const auto d : shape.dims()) w.WriteI64(d);
  w.WriteBytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

core::Status QuantizedTensor::Decode(core::ByteReader& r, QuantizedTensor& out) {
  QuantizedTensor q;
  FLUID_RETURN_IF_ERROR(r.TryReadF32(q.scale));
  if (!std::isfinite(q.scale) || q.scale <= 0.0F) {
    return core::Status::DataLoss("QuantizedTensor: implausible scale");
  }
  std::uint32_t rank = 0;
  FLUID_RETURN_IF_ERROR(r.TryReadU32(rank));
  if (rank > core::Shape::kMaxRank) {
    return core::Status::DataLoss("QuantizedTensor: rank implausibly large");
  }
  std::vector<std::int64_t> dims(rank);
  for (auto& d : dims) {
    FLUID_RETURN_IF_ERROR(r.TryReadI64(d));
    if (d < 0) return core::Status::DataLoss("QuantizedTensor: negative dim");
  }
  // Decode straight into the (pooled) int8 payload — no staging copy;
  // the length is still bounded by the reader's remaining().
  FLUID_RETURN_IF_ERROR(r.TryReadBytes(q.data));
  const core::StatusOr<std::int64_t> numel = core::CheckedNumel(dims);
  if (!numel.ok()) return numel.status();
  if (*numel != q.numel()) {
    return core::Status::DataLoss(
        "QuantizedTensor: payload size does not match shape");
  }
  q.shape = core::Shape(dims);
  out = std::move(q);
  return core::Status::Ok();
}

QuantizedMatrix QuantizeRowsPerChannel(const float* w, std::int64_t rows,
                                       std::int64_t cols) {
  FLUID_CHECK_MSG(rows >= 0 && cols >= 0,
                  "QuantizeRowsPerChannel: negative dimension");
  QuantizedMatrix q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(static_cast<std::size_t>(rows * cols));
  q.scales.resize(static_cast<std::size_t>(rows));
  core::ParallelForEach(0, rows, 1, [&](std::int64_t r) {
    const float* row = w + r * cols;
    const float scale =
        AbsMaxScale(std::span<const float>(row, static_cast<std::size_t>(cols)));
    q.scales[static_cast<std::size_t>(r)] = scale;
    const float inv = 1.0F / scale;
    std::int8_t* dst = q.data.data() + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      dst[c] = QuantizeValue(row[c], inv);
    }
  });
  return q;
}

std::int64_t QuantizedWireBytes(std::size_t rank, std::int64_t n) {
  // scale + rank + dims + u64 byte count + int8 payload.
  return 4 + 4 + 8 * static_cast<std::int64_t>(rank) + 8 + n;
}

}  // namespace fluid::quant
