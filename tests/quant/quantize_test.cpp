// Quantization primitive tests: scale edge cases (all-zero, single
// outlier, denormals, NaN), round-trip error bounds, per-channel weight
// quantization, and the wire codec (including truncation fuzz).

#include "quant/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/tensor.h"

namespace fluid::quant {
namespace {

// The plain scalar definition QuantizeTensor must reproduce bit for bit:
// absmax with NaN ignored, the denormal-scale clamp, then QuantizeValue.
QuantizedTensor ScalarReference(const core::Tensor& t, float scale) {
  QuantizedTensor q;
  q.shape = t.shape();
  if (scale <= 0.0F) {
    float m = 0.0F;
    for (const float v : t.data()) {
      const float a = std::fabs(v);
      if (a > m) m = a;
    }
    scale = m == 0.0F
                ? 1.0F
                : std::max(m / kQMax, std::numeric_limits<float>::min());
  }
  q.scale = scale;
  const float inv = 1.0F / scale;
  for (const float v : t.data()) q.data.push_back(QuantizeValue(v, inv));
  return q;
}

void ExpectBitwiseEqual(const QuantizedTensor& got, const QuantizedTensor& want,
                        std::int64_t n) {
  std::uint32_t got_bits = 0, want_bits = 0;
  std::memcpy(&got_bits, &got.scale, sizeof(float));
  std::memcpy(&want_bits, &want.scale, sizeof(float));
  EXPECT_EQ(got_bits, want_bits) << "scale, n=" << n;
  ASSERT_EQ(got.data.size(), want.data.size());
  for (std::size_t i = 0; i < want.data.size(); ++i) {
    ASSERT_EQ(got.data[i], want.data[i]) << "element " << i << " of " << n;
  }
}

TEST(QuantizeTest, VectorPathMatchesScalarReferenceBitwise) {
  // Random values with every special sprinkled in — NaN, ±inf, ±0,
  // denormals, the float extremes, values past the rails — over sizes
  // that exercise the vector body, its scalar tail and the parallel
  // grain boundary.
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            inf,
                            -inf,
                            0.0F,
                            -0.0F,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest(),
                            std::numeric_limits<float>::min()};
  core::Rng rng(77);
  const std::int64_t sizes[] = {1, 7, 31, 32, 33, 95, 4096 + 13, 25088};
  for (const std::int64_t n : sizes) {
    for (int round = 0; round < 4; ++round) {
      core::Tensor t = core::Tensor::UniformRandom({n}, rng, -5.0F, 5.0F);
      auto d = t.data();
      // round 0: finite only; 1: sparse specials; 2: dense specials;
      // 3: a single infinity (scale becomes inf, every code 0 or NaN→0).
      for (std::size_t i = 0; i < d.size(); ++i) {
        const auto pick = rng.NextU64() % (round == 2 ? 12 : 200);
        if (round != 0 && round != 3 && pick < std::size(specials)) {
          d[i] = specials[pick];
        }
      }
      if (round == 3) d[d.size() / 2] = inf;
      ExpectBitwiseEqual(QuantizeTensor(t), ScalarReference(t, 0.0F), n);
    }
  }
}

TEST(QuantizeTest, VectorPathRoundsTiesToEvenAndClampsLikeScalar) {
  // Scale 1: every half-integer in [-140, 140] is an exact tie, and the
  // ends run past both ±127 rails.
  std::vector<float> values;
  for (float v = -140.0F; v <= 140.0F; v += 0.25F) values.push_back(v);
  core::Tensor t(core::Shape{static_cast<std::int64_t>(values.size())},
                 values);
  const QuantizedTensor got = QuantizeTensor(t, 1.0F);
  ExpectBitwiseEqual(got, ScalarReference(t, 1.0F), t.numel());
  // Spot checks of the semantics themselves.
  auto code_of = [&](float v) {
    const auto it = std::find(values.begin(), values.end(), v);
    return got.data[static_cast<std::size_t>(it - values.begin())];
  };
  EXPECT_EQ(code_of(2.5F), 2);
  EXPECT_EQ(code_of(3.5F), 4);
  EXPECT_EQ(code_of(-2.5F), -2);
  EXPECT_EQ(code_of(127.5F), 127);
  EXPECT_EQ(code_of(-139.0F), -127);
}

TEST(QuantizeTest, RoundTripErrorBoundedByHalfScale) {
  core::Rng rng(11);
  core::Tensor t = core::Tensor::UniformRandom({4, 7, 5}, rng, -3.0F, 3.0F);
  const QuantizedTensor q = QuantizeTensor(t);
  const core::Tensor back = DequantizeTensor(q);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(back.at(i) - t.at(i)), q.scale * 0.5F + 1e-7F)
        << "element " << i;
  }
}

TEST(QuantizeTest, AllZeroTensorRoundTripsExactly) {
  core::Tensor t({3, 3});
  const QuantizedTensor q = QuantizeTensor(t);
  EXPECT_EQ(q.scale, 1.0F);
  const core::Tensor back = DequantizeTensor(q);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(back.at(i), 0.0F);
  }
}

TEST(QuantizeTest, SingleOutlierDominatesScaleButStaysExactAtTheRail) {
  core::Tensor t({8});
  for (std::int64_t i = 0; i < 7; ++i) t.at(i) = 0.01F;
  t.at(7) = 127.0F;  // outlier = 127 · (absmax/127), lands exactly on 127
  const QuantizedTensor q = QuantizeTensor(t);
  EXPECT_FLOAT_EQ(q.scale, 1.0F);
  EXPECT_EQ(q.data[7], 127);
  // The small values collapse to 0 — that is the per-tensor scheme's
  // documented failure mode an outlier induces, not a bug.
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(q.data[i], 0);
}

TEST(QuantizeTest, DenormalAbsmaxNeverDividesByZero) {
  const float denorm = std::numeric_limits<float>::denorm_min() * 100.0F;
  core::Tensor t({4});
  t.at(0) = denorm;
  t.at(1) = -denorm;
  const QuantizedTensor q = QuantizeTensor(t);
  EXPECT_TRUE(std::isfinite(q.scale));
  EXPECT_GT(q.scale, 0.0F);
  for (const auto v : q.data) {
    EXPECT_GE(v, -127);
    EXPECT_LE(v, 127);
  }
  const core::Tensor back = DequantizeTensor(q);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(back.at(i)));
  }
}

TEST(QuantizeTest, NaNQuantizesToZeroAndInfClampsToRail) {
  core::Tensor t({3});
  t.at(0) = std::numeric_limits<float>::quiet_NaN();
  t.at(1) = std::numeric_limits<float>::infinity();
  t.at(2) = -std::numeric_limits<float>::infinity();
  const QuantizedTensor q = QuantizeTensor(t, /*scale=*/1.0F);
  EXPECT_EQ(q.data[0], 0);
  EXPECT_EQ(q.data[1], 127);
  EXPECT_EQ(q.data[2], -127);
}

TEST(QuantizeTest, SymmetricRange) {
  // -absmax and +absmax map to -127/+127: the -128 code is never used,
  // so negating a tensor negates its quantized form.
  core::Tensor t({2});
  t.at(0) = -2.5F;
  t.at(1) = 2.5F;
  const QuantizedTensor q = QuantizeTensor(t);
  EXPECT_EQ(q.data[0], -127);
  EXPECT_EQ(q.data[1], 127);
}

TEST(QuantizeTest, PerChannelScalesIsolateRowDynamicRange) {
  // Row 0 is tiny, row 1 is huge: per-tensor quantization would zero out
  // row 0 entirely; per-channel keeps both at full 8-bit resolution.
  const std::int64_t cols = 16;
  std::vector<float> w(2 * cols);
  for (std::int64_t c = 0; c < cols; ++c) {
    w[static_cast<std::size_t>(c)] = 0.001F * static_cast<float>(c - 8);
    w[static_cast<std::size_t>(cols + c)] = 50.0F * static_cast<float>(c - 8);
  }
  const QuantizedMatrix q = QuantizeRowsPerChannel(w.data(), 2, cols);
  ASSERT_EQ(q.scales.size(), 2u);
  for (std::int64_t r = 0; r < 2; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const float back =
          q.scales[static_cast<std::size_t>(r)] *
          static_cast<float>(q.data[static_cast<std::size_t>(r * cols + c)]);
      const float ref = w[static_cast<std::size_t>(r * cols + c)];
      EXPECT_NEAR(back, ref, q.scales[static_cast<std::size_t>(r)] * 0.5F);
    }
  }
  // Row 0's small weights survived (nonzero codes exist).
  bool any_nonzero = false;
  for (std::int64_t c = 0; c < cols; ++c) {
    any_nonzero |= q.data[static_cast<std::size_t>(c)] != 0;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(QuantizeTest, WireRoundTrip) {
  core::Rng rng(5);
  core::Tensor t = core::Tensor::UniformRandom({2, 3, 4}, rng, -1.0F, 1.0F);
  const QuantizedTensor q = QuantizeTensor(t);
  core::ByteWriter w;
  q.Encode(w);
  EXPECT_EQ(static_cast<std::int64_t>(w.size()),
            QuantizedWireBytes(q.shape.rank(), q.numel()));
  core::ByteReader r(w.buffer());
  QuantizedTensor back;
  ASSERT_TRUE(QuantizedTensor::Decode(r, back).ok());
  EXPECT_EQ(back.shape, q.shape);
  EXPECT_EQ(back.scale, q.scale);
  EXPECT_EQ(back.data, q.data);
}

TEST(QuantizeTest, WireDecodeNeverThrowsOnTruncationOrGarbage) {
  core::Rng rng(6);
  core::Tensor t = core::Tensor::UniformRandom({3, 5}, rng, -1.0F, 1.0F);
  const QuantizedTensor q = QuantizeTensor(t);
  core::ByteWriter w;
  q.Encode(w);
  const auto& bytes = w.buffer();
  // Every truncation point must fail as Status, not throw or over-read.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    core::ByteReader r(std::span<const std::uint8_t>(bytes.data(), cut));
    QuantizedTensor out;
    EXPECT_FALSE(QuantizedTensor::Decode(r, out).ok()) << "cut=" << cut;
  }
  // Corrupt every byte in turn; decode must return (ok or error), never
  // throw. A flipped dim/length that still parses is fine — the caller
  // validates semantics — but implausible scales/sizes must be caught.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0xFF;
    core::ByteReader r(bad);
    QuantizedTensor out;
    EXPECT_NO_THROW({ (void)QuantizedTensor::Decode(r, out); }) << "i=" << i;
  }
}

}  // namespace
}  // namespace fluid::quant
