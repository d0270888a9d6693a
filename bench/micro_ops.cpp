// google-benchmark microbenchmarks of the kernels every experiment rests
// on: GEMM, conv forward/backward, slimmable slice execution at each paper
// width, the channel-partitioned HA runner, and the wire codec.

#include <benchmark/benchmark.h>

#include "core/buffer_pool.h"
#include "core/gemm.h"
#include "core/qgemm.h"
#include "core/rng.h"
#include "dist/message.h"
#include "nn/checkpoint.h"
#include "nn/compiled_net.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "slim/fluid_model.h"
#include "slim/partitioned.h"
#include "train/model_zoo.h"

using namespace fluid;

namespace {

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  core::Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto _ : state) {
    core::Gemm(false, false, n, n, n, 1.0F, a.data(), n, b.data(), n, 0.0F,
               c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(16)->Arg(64)->Arg(144)->Arg(256)->Arg(512);

void BM_QGemmInt8(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  core::Rng rng(1);
  std::vector<std::int8_t> a(static_cast<std::size_t>(n * n));
  std::vector<std::int8_t> b(static_cast<std::size_t>(n * n));
  std::vector<std::int32_t> c(static_cast<std::size_t>(n * n));
  for (auto& v : a) {
    v = static_cast<std::int8_t>(
        static_cast<std::int64_t>(rng.UniformInt(255)) - 127);
  }
  for (auto& v : b) {
    v = static_cast<std::int8_t>(
        static_cast<std::int64_t>(rng.UniformInt(255)) - 127);
  }
  for (auto _ : state) {
    core::QGemmInt8(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  // "FLOP"-equivalent ops (one multiply + one add per k step) so the
  // reported rate compares directly against BM_Gemm's GF/s.
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_QGemmInt8)->Arg(16)->Arg(64)->Arg(144)->Arg(256)->Arg(512);

void BM_Conv2dForward(benchmark::State& state) {
  const std::int64_t width = state.range(0);
  core::Rng rng(2);
  nn::Conv2d conv(width, width, 3, 1, 1, rng);
  core::Tensor x =
      core::Tensor::UniformRandom({1, width, 14, 14}, rng, -1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, false));
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void BM_Conv2dForwardBatched(benchmark::State& state) {
  // Batched serving path: the fused lowering turns each fusion group into
  // one [Cout, group·area] GEMM, so throughput/sample should rise with
  // batch until the group size caps it. items == samples.
  const std::int64_t batch = state.range(0);
  core::Rng rng(2);
  nn::Conv2d conv(16, 16, 3, 1, 1, rng);
  core::Tensor x =
      core::Tensor::UniformRandom({batch, 16, 14, 14}, rng, -1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, false));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Conv2dForwardBatched)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_Conv2dBackward(benchmark::State& state) {
  const std::int64_t width = state.range(0);
  core::Rng rng(3);
  nn::Conv2d conv(width, width, 3, 1, 1, rng);
  core::Tensor x =
      core::Tensor::UniformRandom({1, width, 14, 14}, rng, -1, 1);
  core::Tensor g = core::Tensor::Ones({1, width, 14, 14});
  for (auto _ : state) {
    conv.Forward(x, true);
    benchmark::DoNotOptimize(conv.Backward(g));
  }
}
BENCHMARK(BM_Conv2dBackward)->Arg(8)->Arg(16);

void BM_SubnetForward(benchmark::State& state) {
  // Single-image inference of each paper sub-network — the quantity the
  // Fig. 2 throughput panel measures.
  static slim::FluidModel model = slim::FluidModel::PaperDefault(5);
  const auto specs = model.family().All();
  const auto& spec = specs[static_cast<std::size_t>(state.range(0))];
  core::Rng rng(4);
  core::Tensor x = core::Tensor::UniformRandom({1, 1, 28, 28}, rng, 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(spec, x, false));
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_SubnetForward)->DenseRange(0, 5);

void BM_ExtractedSubnetForward(benchmark::State& state) {
  static slim::FluidModel model = slim::FluidModel::PaperDefault(6);
  nn::Sequential extracted =
      model.ExtractSubnet(model.family().MasterResident());
  core::Rng rng(5);
  core::Tensor x = core::Tensor::UniformRandom({1, 1, 28, 28}, rng, 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extracted.Forward(x, false));
  }
}
BENCHMARK(BM_ExtractedSubnetForward);

// The served subnets, layer by layer: the HA halves of the combined model
// cut after stage 1 (the servebench cut) and the master's lower-50% slice.
// range(0): 0 = ha_front, 1 = ha_back, 2 = lower50; range(1): batch.
struct ServedNet {
  const char* name;
  nn::Sequential model;
  core::Tensor input;  // one batch of range(1) rows
  double flops_per_row = 0;
};

ServedNet MakeServedNet(std::int64_t which, std::int64_t batch) {
  static slim::FluidModel fluid = slim::FluidModel::PaperDefault(8);
  const auto& family = fluid.family();
  const std::int64_t width = family.max_width();
  core::Rng rng(9);
  ServedNet net;
  core::Tensor images =
      core::Tensor::UniformRandom({batch, 1, 28, 28}, rng, 0, 1);
  if (which == 2) {
    net.name = "lower50";
    net.model = fluid.ExtractSubnet(family.MasterResident());
    net.input = images;
  } else {
    nn::Sequential full = fluid.ExtractSubnet(family.Combined());
    auto halves = train::SplitConvNet(fluid.config(), width, full, 1);
    net.name = which == 0 ? "ha_front" : "ha_back";
    net.input = which == 0 ? images : halves.front.Forward(images, false);
    net.model = which == 0 ? std::move(halves.front) : std::move(halves.back);
  }
  // FLOPs from the shapes each layer produces: 2·patch per conv output
  // element, 2·in per dense output element.
  core::Tensor x = net.input;
  for (const auto& layer : net.model.layers()) {
    core::Tensor y = layer->Forward(x, false);
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(layer.get())) {
      net.flops_per_row += 2.0 * static_cast<double>(
          conv->in_channels() * conv->kernel() * conv->kernel() * y.numel());
    } else if (const auto* dense = dynamic_cast<const nn::Dense*>(layer.get())) {
      net.flops_per_row +=
          2.0 * static_cast<double>(dense->in_features() * y.numel());
    }
    x = std::move(y);
  }
  net.flops_per_row /= static_cast<double>(batch);
  return net;
}

// items_per_second is GF/s (compare with BM_Gemm in the same run);
// per_row is the forward time divided by the batch, in seconds.
void ReportPerRow(benchmark::State& state, const ServedNet& net) {
  const std::int64_t batch = state.range(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations() * batch) * net.flops_per_row));
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(batch),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetLabel(net.name);
}

void BM_CompiledNetForward(benchmark::State& state) {
  ServedNet net = MakeServedNet(state.range(0), state.range(1));
  nn::CompiledNet plan(std::move(net.model));
  for (auto _ : state) {
    core::Tensor out = plan.Forward(net.input);
    benchmark::DoNotOptimize(out.data().data());
    core::RecycleTensor(std::move(out));
  }
  ReportPerRow(state, net);
}
BENCHMARK(BM_CompiledNetForward)->ArgsProduct({{0, 1, 2}, {1, 8, 32}});

// The same nets through Sequential::Forward (the layer-by-layer path the
// plans replace), for a before/after within one run.
void BM_SequentialServedForward(benchmark::State& state) {
  ServedNet net = MakeServedNet(state.range(0), state.range(1));
  for (auto _ : state) {
    core::Tensor out = net.model.Forward(net.input, false);
    benchmark::DoNotOptimize(out.data().data());
    core::RecycleTensor(std::move(out));
  }
  ReportPerRow(state, net);
}
BENCHMARK(BM_SequentialServedForward)->ArgsProduct({{0, 1, 2}, {1, 8, 32}});

void BM_PartitionedHaForward(benchmark::State& state) {
  static slim::FluidModel model = slim::FluidModel::PaperDefault(7);
  slim::PartitionedRunner runner(model);
  core::Rng rng(6);
  core::Tensor x = core::Tensor::UniformRandom({1, 1, 28, 28}, rng, 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.Run(x));
  }
}
BENCHMARK(BM_PartitionedHaForward);

void BM_MessageCodec(benchmark::State& state) {
  core::Rng rng(7);
  const core::Tensor t =
      core::Tensor::UniformRandom({1, 1, 28, 28}, rng, 0, 1);
  const dist::Message msg =
      dist::Message::WithTensor(dist::MsgType::kInfer, 1, "m", t);
  for (auto _ : state) {
    const auto bytes = dist::EncodeMessage(msg);
    dist::Message out;
    dist::DecodeMessage(bytes, out).ThrowIfError();
    benchmark::DoNotOptimize(out.payload.data());
  }
}
BENCHMARK(BM_MessageCodec);

void BM_CheckpointSerialize(benchmark::State& state) {
  slim::FluidNetConfig cfg;
  core::Rng rng(8);
  nn::Sequential model = train::BuildConvNet(cfg, 16, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::SerializeState(nn::ExtractState(model)));
  }
}
BENCHMARK(BM_CheckpointSerialize);

}  // namespace

BENCHMARK_MAIN();
