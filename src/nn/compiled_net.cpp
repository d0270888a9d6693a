#include "nn/compiled_net.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <typeinfo>
#include <utility>

#include "core/buffer_pool.h"
#include "core/error.h"
#include "core/parallel.h"
#include "core/simd/gemm_kernel.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/im2col.h"
#include "nn/pooling.h"

namespace fluid::nn {

namespace {

// Zero-bordered planar copies of every row's conv input, reused across
// calls. Bound to a local before the parallel region: a thread_local NAME
// inside the lambda would resolve to the executing worker's instance.
thread_local std::vector<float> tl_padded;

// Exact type match: a subclass that overrides Forward must not be lowered
// as its base.
template <typename L>
L* As(Layer* layer) {
  return layer != nullptr && typeid(*layer) == typeid(L)
             ? static_cast<L*>(layer)
             : nullptr;
}

// The smallest reduction chunk of any GEMM tier. A conv whose patch fits
// it is reduced by core::Gemm as a single FMA chain on every tier, which
// is the chain the direct kernel computes.
std::int64_t MinTierKc() {
  static const std::int64_t kc = [] {
    std::int64_t m = INT64_MAX;
    for (const auto* k : core::simd::AllGemmKernels()) m = std::min(m, k->kc);
    return m;
  }();
  return kc;
}

std::int64_t PadLanes(std::int64_t n) {
  return (n + kDirectLanes - 1) / kDirectLanes * kDirectLanes;
}

// w_packed[p·out_pad + o] = w[o·reduction + p]; pad lanes stay zero.
void Prepack(const core::Tensor& weight, const core::Tensor& bias,
             std::int64_t out, std::int64_t reduction, std::int64_t out_pad,
             std::vector<float>& w_packed, std::vector<float>& b_packed) {
  w_packed.assign(static_cast<std::size_t>(reduction * out_pad), 0.0F);
  b_packed.assign(static_cast<std::size_t>(out_pad), 0.0F);
  const float* w = weight.data().data();
  for (std::int64_t o = 0; o < out; ++o) {
    for (std::int64_t p = 0; p < reduction; ++p) {
      w_packed[static_cast<std::size_t>(p * out_pad + o)] = w[o * reduction + p];
    }
    b_packed[static_cast<std::size_t>(o)] = bias.data()[static_cast<std::size_t>(o)];
  }
}

// One sample's [cin][h][w] planes into [cin][h+2·pad][w+2·pad] with a zero
// border — the conv's padded taps become ordinary zero-valued loads.
void PadPlanes(const float* src, std::int64_t cin, std::int64_t h,
               std::int64_t w, std::int64_t pad, float* dst) {
  const std::int64_t wp = w + 2 * pad;
  const auto zero = [](float* p, std::int64_t n) {
    std::fill(p, p + n, 0.0F);
  };
  for (std::int64_t c = 0; c < cin; ++c) {
    zero(dst, pad * wp);
    dst += pad * wp;
    for (std::int64_t y = 0; y < h; ++y, src += w, dst += wp) {
      zero(dst, pad);
      std::memcpy(dst + pad, src, static_cast<std::size_t>(w) * sizeof(float));
      zero(dst + pad + w, pad);
    }
    zero(dst, pad * wp);
    dst += pad * wp;
  }
}

}  // namespace

CompiledNet::CompiledNet(Sequential model) : model_(std::move(model)) {
  const auto& layers = model_.layers();
  const std::size_t n = layers.size();
  for (std::size_t i = 0; i < n; ++i) {
    Layer* layer = layers[i].get();
    auto next = [&](std::size_t j) {
      return j < n ? layers[j].get() : nullptr;
    };
    Op op;
    if (auto* conv = As<Conv2d>(layer);
        conv != nullptr && conv->stride() == 1 &&
        conv->in_channels() * conv->kernel() * conv->kernel() <= MinTierKc()) {
      op.kind = Op::Kind::kConv;
      op.cin = conv->in_channels();
      op.kernel = conv->kernel();
      op.pad = conv->pad();
      op.out = conv->out_channels();
      op.out_pad = PadLanes(op.out);
      Prepack(conv->weight(), conv->bias(), op.out,
              op.cin * op.kernel * op.kernel, op.out_pad, op.w, op.bias);
      if (auto* leaky = As<LeakyReLU>(next(i + 1))) {
        op.act = DirectAct::kLeaky;
        op.slope = leaky->slope();
        ++i;
      } else if (As<ReLU>(next(i + 1)) != nullptr) {
        op.act = DirectAct::kRelu;
        ++i;
      }
      if (auto* pool = As<MaxPool2d>(next(i + 1));
          pool != nullptr && pool->window() == 2) {
        op.pool = true;
        ++i;
      }
    } else if (As<Dense>(layer) != nullptr ||
               (As<Flatten>(layer) != nullptr &&
                As<Dense>(next(i + 1)) != nullptr)) {
      op.flatten = As<Flatten>(layer) != nullptr;
      auto* dense = As<Dense>(op.flatten ? layers[++i].get() : layer);
      op.kind = Op::Kind::kDense;
      op.in_features = dense->in_features();
      op.out = dense->out_features();
      op.out_pad = PadLanes(op.out);
      Prepack(dense->weight(), dense->bias(), op.out, op.in_features,
              op.out_pad, op.w, op.bias);
    } else {
      op.layer = layer;
    }
    ops_.push_back(std::move(op));
  }
}

core::Tensor CompiledNet::Forward(const core::Tensor& input) {
  return Run(&input, core::Tensor());
}

core::Tensor CompiledNet::Forward(core::Tensor&& input) {
  return Run(nullptr, std::move(input));
}

core::Tensor CompiledNet::Run(const core::Tensor* borrowed,
                              core::Tensor&& owned) {
  // Resolved per call, like core::Gemm, so the plan always runs the tier
  // the Sequential path would.
  const core::simd::GemmKernel& gemm = core::simd::ActiveGemmKernel();
  const DirectKernels& kern = DirectKernelsFor(gemm);
  core::Tensor cur = std::move(owned);
  for (const Op& op : ops_) {
    const core::Tensor& in = borrowed != nullptr ? *borrowed : cur;
    core::Tensor next;
    if (op.kind == Op::Kind::kLayer) {
      // Same calls as Sequential's inference path: the borrowed input is
      // read in place, an owned one is consumed.
      next = borrowed != nullptr ? op.layer->Forward(in, false)
                                 : op.layer->ForwardInference(std::move(cur));
    } else {
      next = op.kind == Op::Kind::kConv ? RunConv(op, kern, in)
                                        : RunDense(op, kern, gemm.kc, in);
      if (borrowed == nullptr) core::RecycleTensor(std::move(cur));
    }
    borrowed = nullptr;
    cur = std::move(next);
  }
  return borrowed != nullptr ? *borrowed : std::move(cur);
}

core::Tensor CompiledNet::RunConv(const Op& op, const DirectKernels& kern,
                                  const core::Tensor& in) const {
  const auto& s = in.shape();
  FLUID_CHECK_MSG(s.rank() == 4 && s[1] == op.cin,
                  "Conv2d: expected input [N," + std::to_string(op.cin) +
                      ",H,W], got " + s.ToString());
  const std::int64_t batch = s[0], h = s[2], w = s[3];
  const std::int64_t oh = ConvOutExtent(h, op.kernel, 1, op.pad);
  const std::int64_t ow = ConvOutExtent(w, op.kernel, 1, op.pad);
  const std::int64_t out_h = op.pool ? oh / 2 : oh;
  const std::int64_t out_w = op.pool ? ow / 2 : ow;
  FLUID_CHECK_MSG(out_h > 0 && out_w > 0, "MaxPool2d window larger than input");

  core::Tensor out = core::AcquireTensor({batch, op.out, out_h, out_w});
  const std::int64_t hp = h + 2 * op.pad, wp = w + 2 * op.pad;
  const std::int64_t padded_floats = op.cin * hp * wp;
  auto& padded = tl_padded;
  core::EnsureScratch(padded, batch * padded_floats);
  float* padded_base = padded.data();
  const float* src = in.data().data();
  float* dst = out.data().data();
  core::ParallelForEach(0, batch, 1, [&](std::int64_t i) {
    float* p = padded_base + i * padded_floats;
    PadPlanes(src + i * op.cin * h * w, op.cin, h, w, op.pad, p);
    DirectConvArgs a;
    a.in = p;
    a.cin = op.cin;
    a.hp = hp;
    a.wp = wp;
    a.kernel = op.kernel;
    a.w = op.w.data();
    a.bias = op.bias.data();
    a.cout = op.out;
    a.out_pad = op.out_pad;
    a.act = op.act;
    a.slope = op.slope;
    a.pool = op.pool;
    a.oh = oh;
    a.ow = ow;
    a.out = dst + i * op.out * out_h * out_w;
    kern.conv(a);
  });
  return out;
}

core::Tensor CompiledNet::RunDense(const Op& op, const DirectKernels& kern,
                                   std::int64_t kc,
                                   const core::Tensor& in) const {
  const auto& s = in.shape();
  std::int64_t batch = 0, features = 0;
  if (op.flatten) {
    FLUID_CHECK_MSG(s.rank() >= 1, "Flatten expects rank >= 1");
    batch = s[0];
    features = batch == 0 ? 0 : in.numel() / batch;
  } else {
    FLUID_CHECK_MSG(s.rank() == 2, "Dense: expected [N," +
                                       std::to_string(op.in_features) +
                                       "], got " + s.ToString());
    batch = s[0];
    features = s[1];
  }
  FLUID_CHECK_MSG(features == op.in_features,
                  "Dense: expected [N," + std::to_string(op.in_features) +
                      "], got [" + std::to_string(batch) + "," +
                      std::to_string(features) + "]");
  core::Tensor out = core::AcquireTensor({batch, op.out});
  const float* src = in.data().data();
  float* dst = out.data().data();
  core::ParallelFor(0, batch, 16, [&](std::int64_t lo, std::int64_t hi) {
    DirectDenseArgs a;
    a.in = src + lo * op.in_features;
    a.rows = hi - lo;
    a.in_features = op.in_features;
    a.w = op.w.data();
    a.bias = op.bias.data();
    a.out_features = op.out;
    a.out_pad = op.out_pad;
    a.kc = kc;
    a.out = dst + lo * op.out;
    kern.dense(a);
  });
  return out;
}

std::string CompiledNet::ToString() const {
  std::ostringstream os;
  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kConv:
        os << "conv" << op.kernel << "x" << op.kernel << " " << op.cin << "->"
           << op.out;
        if (op.act == DirectAct::kLeaky) os << " +leaky(" << op.slope << ")";
        if (op.act == DirectAct::kRelu) os << " +relu";
        if (op.pool) os << " +pool2";
        break;
      case Op::Kind::kDense:
        os << (op.flatten ? "flatten+" : "") << "dense " << op.in_features
           << "->" << op.out;
        break;
      case Op::Kind::kLayer:
        os << "layer " << op.layer->ToString();
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace fluid::nn
