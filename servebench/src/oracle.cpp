// Input pool and reply oracle.
//
// Inputs are seeded synthetic 1x28x28 images. References are local
// forwards of the very slices the fleet deploys, so an fp32 reply row must
// match one of them bit for bit (the serving path claims per-sample
// bitwise determinism whatever the chunking, sharding or failover). The
// int8 cut path cannot be bitwise: the cut scale is the absmax of the
// whole chunk, which depends on what the scheduler grouped. There the
// oracle checks top-1, on a pool filtered so that int8 cut error provably
// cannot flip it (see FilterInt8Safe).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "core/rng.h"
#include "quant/quantize.h"

namespace servebench {
namespace {

constexpr std::int64_t kImageSize = 28;
constexpr std::int64_t kPixels = kImageSize * kImageSize;

core::Tensor RandomImages(core::Rng& rng, std::int64_t n) {
  return core::Tensor::UniformRandom({n, 1, kImageSize, kImageSize}, rng, 0.0F,
                                     1.0F);
}

core::Tensor ImageAt(const core::Tensor& batch, std::int64_t i) {
  core::Tensor x({1, 1, kImageSize, kImageSize});
  std::copy_n(batch.data().begin() + i * kPixels, kPixels, x.data().begin());
  return x;
}

int ArgMax(const float* row) {
  return static_cast<int>(std::max_element(row, row + kNumClasses) - row);
}

float TopMargin(const float* row) {
  float best = row[0], second = -INFINITY;
  for (std::int64_t k = 1; k < kNumClasses; ++k) {
    if (row[k] > best) {
      second = best;
      best = row[k];
    } else if (row[k] > second) {
      second = row[k];
    }
  }
  return best - second;
}

float RowAbsMax(const core::Tensor& t, std::int64_t row, std::int64_t stride) {
  float m = 0.0F;
  const float* p = t.data().data() + row * stride;
  for (std::int64_t j = 0; j < stride; ++j) m = std::max(m, std::fabs(p[j]));
  return m;
}

/// Worst logit deviation per row when the cut is quantized with `scale`.
std::vector<float> Int8Deviation(nn::Sequential& back, const core::Tensor& cut,
                                 const core::Tensor& fp32_logits, float scale) {
  const core::Tensor deq =
      fluid::quant::DequantizeTensor(fluid::quant::QuantizeTensor(cut, scale));
  const core::Tensor q_logits = back.Forward(deq, false);
  const std::int64_t n = cut.shape()[0];
  std::vector<float> dev(static_cast<std::size_t>(n), 0.0F);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = 0; k < kNumClasses; ++k) {
      const std::size_t at = static_cast<std::size_t>(i * kNumClasses + k);
      dev[static_cast<std::size_t>(i)] =
          std::max(dev[static_cast<std::size_t>(i)],
                   std::fabs(q_logits.data()[at] - fp32_logits.data()[at]));
    }
  }
  return dev;
}

void AddAllowed(Oracle& o, const core::Tensor& logits) {
  for (std::size_t i = 0; i < o.allowed.size(); ++i) {
    const float* row =
        logits.data().data() + static_cast<std::int64_t>(i) * kNumClasses;
    o.allowed[i].insert(o.allowed[i].end(), row, row + kNumClasses);
  }
}

}  // namespace

bool Oracle::Check(std::size_t image, const float* row) const {
  for (std::int64_t k = 0; k < kNumClasses; ++k) {
    if (!std::isfinite(row[k])) return false;
  }
  if (top1_only) return ArgMax(row) == top1[image];
  const std::vector<float>& refs = allowed[image];
  for (std::size_t off = 0; off < refs.size(); off += kNumClasses) {
    if (std::memcmp(row, refs.data() + off, sizeof(float) * kNumClasses) == 0) {
      return true;
    }
  }
  return false;
}

Oracle BuildOracle(const Workload& w, const Models& models, std::uint64_t seed,
                   std::size_t pool_size) {
  const auto& family = models.store.family();
  const auto combined = family.Combined();
  nn::Sequential full = models.store.ExtractSubnet(combined);
  auto halves = fluid::train::SplitConvNet(models.cfg, combined.range.width(),
                                           full, Models::kCut);
  core::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const auto n = static_cast<std::int64_t>(pool_size);

  Oracle o;
  if (w.kind == WorkloadKind::kHaBurst) {
    // Draw candidates, then keep those whose fp32 top-1 margin exceeds 4x
    // the worst logit deviation int8 cut quantization causes anywhere in
    // the candidate set. The deviation is measured at two scales: each
    // row's own absmax (the finest a chunk can get) and the largest
    // absmax of any candidate (the coarsest: a chunk's scale is the
    // absmax of its rows, all drawn from this pool).
    o.top1_only = true;
    const std::int64_t block = 4 * n;
    const core::Tensor x = RandomImages(rng, block);
    const core::Tensor cut = halves.front.Forward(x, false);
    const core::Tensor logits = halves.back.Forward(cut, false);
    const std::int64_t stride = cut.numel() / block;
    float coarse = 0.0F;
    for (std::int64_t i = 0; i < block; ++i) {
      coarse = std::max(coarse, RowAbsMax(cut, i, stride));
    }
    float worst = 0.0F;
    for (float d : Int8Deviation(halves.back, cut, logits,
                                 coarse / fluid::quant::kQMax)) {
      worst = std::max(worst, d);
    }
    for (std::int64_t i = 0; i < block; ++i) {
      core::Tensor row_cut({1, cut.shape()[1], cut.shape()[2], cut.shape()[3]});
      std::copy_n(cut.data().begin() + i * stride, stride,
                  row_cut.data().begin());
      core::Tensor row_logits({1, kNumClasses});
      std::copy_n(logits.data().begin() + i * kNumClasses, kNumClasses,
                  row_logits.data().begin());
      worst = std::max(worst, Int8Deviation(halves.back, row_cut, row_logits,
                                            0.0F)[0]);
    }
    for (std::int64_t i = 0; i < block && o.images.size() < pool_size; ++i) {
      const float* row = logits.data().data() + i * kNumClasses;
      if (TopMargin(row) > 4.0F * worst) {
        o.images.push_back(ImageAt(x, i));
        o.top1.push_back(ArgMax(row));
      }
    }
    if (o.images.size() < pool_size) {
      std::fprintf(stderr,
                   "servebench: only %zu of %lld candidates have an int8-safe "
                   "top-1 margin (worst deviation %.4g)\n",
                   o.images.size(), static_cast<long long>(block), worst);
      std::exit(3);
    }
    return o;
  }

  const core::Tensor x = RandomImages(rng, n);
  for (std::int64_t i = 0; i < n; ++i) o.images.push_back(ImageAt(x, i));
  o.allowed.resize(pool_size);
  nn::Sequential lower = models.store.ExtractSubnet(family.MasterResident());
  AddAllowed(o, lower.Forward(x, false));
  if (w.kind == WorkloadKind::kHtBulk) {
    nn::Sequential upper = models.store.ExtractSubnet(family.WorkerResident());
    AddAllowed(o, upper.Forward(x, false));
  } else {
    AddAllowed(o, halves.back.Forward(halves.front.Forward(x, false), false));
  }
  return o;
}

int OracleSelfTest() {
  const Models models;
  const Oracle o = BuildOracle(*FindWorkload("ht_bulk"), models, 1, 8);
  std::vector<float> row(o.allowed[0].begin(),
                         o.allowed[0].begin() + kNumClasses);
  if (!o.Check(0, row.data())) {
    std::printf("selftest FAIL: oracle rejected a reference row\n");
    return 1;
  }
  std::uint32_t bits = 0;
  std::memcpy(&bits, &row[3], sizeof(bits));
  bits ^= 1U;  // lowest mantissa bit of one logit
  std::memcpy(&row[3], &bits, sizeof(bits));
  if (o.Check(0, row.data())) {
    std::printf("selftest FAIL: oracle accepted a row with one flipped bit\n");
    return 1;
  }
  std::printf("selftest OK: oracle accepts the reference row and rejects one "
              "flipped logit bit\n");
  return 0;
}

}  // namespace servebench
