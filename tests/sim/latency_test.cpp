#include "sim/latency.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/rng.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "train/model_zoo.h"

namespace fluid::sim {
namespace {

TEST(LatencyTest, MeasuresASleepWithinTolerance) {
  const auto m = MeasureLatency(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); },
      /*iters=*/5, /*warmup=*/1);
  EXPECT_EQ(m.iterations, 5);
  EXPECT_GE(m.mean_s, 0.002);
  EXPECT_LT(m.mean_s, 0.05);  // generous: CI boxes stall
  EXPECT_LE(m.min_s, m.mean_s);
  EXPECT_GE(m.max_s, m.mean_s);
}

TEST(LatencyTest, RequiresPositiveIterations) {
  EXPECT_THROW(MeasureLatency([] {}, 0), core::Error);
}

// Forward FLOPs of one sample through a BuildConvNet model, from the
// shapes its layers produce: 2·patch per conv output element, 2·in per
// dense output element.
std::int64_t ConvNetFlops(nn::Sequential& model, const core::Tensor& sample) {
  std::int64_t flops = 0;
  core::Tensor x = sample;
  for (const auto& layer : model.layers()) {
    core::Tensor y = layer->Forward(x, false);
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(layer.get())) {
      flops += 2 * conv->in_channels() * conv->kernel() * conv->kernel() *
               y.numel();
    } else if (const auto* fc = dynamic_cast<const nn::Dense*>(layer.get())) {
      flops += 2 * fc->in_features() * y.numel();
    }
    x = std::move(y);
  }
  return flops;
}

// Wider costs more: asserted on FLOP counts, which are deterministic — a
// comparison of two ~0.1 ms wall-clock means flips on a shared host. The
// measurement itself only has to produce a positive latency.
TEST(LatencyTest, ModelLatencyScalesWithWidth) {
  slim::FluidNetConfig cfg;
  core::Rng rng(1);
  nn::Sequential narrow = train::BuildConvNet(cfg, 4, rng);
  nn::Sequential wide = train::BuildConvNet(cfg, 16, rng);
  core::Tensor sample({1, 1, 28, 28});
  EXPECT_GT(ConvNetFlops(wide, sample), ConvNetFlops(narrow, sample));
  // The count agrees with the slimmable model's own accounting.
  slim::FluidModel store = slim::FluidModel::PaperDefault(1);
  EXPECT_EQ(ConvNetFlops(wide, sample),
            store.SubnetFlops(store.family().ByName("100%")));
  EXPECT_EQ(ConvNetFlops(narrow, sample),
            store.SubnetFlops(store.family().ByName("25%")));
  EXPECT_GT(MeasureModelLatency(wide, sample, 3).mean_s, 0.0);
}

TEST(LatencyTest, SubnetLatencyOrdersWithSliceWidth) {
  slim::FluidModel model = slim::FluidModel::PaperDefault(3);
  const auto& family = model.family();
  std::int64_t prev = 0;
  for (const auto& spec : family.LowerFamily()) {
    EXPECT_GT(model.SubnetFlops(spec), prev) << spec.name;
    prev = model.SubnetFlops(spec);
  }
  EXPECT_GT(model.SubnetFlops(family.ByName("upper50%")),
            model.SubnetFlops(family.ByName("upper25%")));
  core::Tensor sample({1, 1, 28, 28});
  EXPECT_GT(MeasureSubnetLatency(model, family.ByName("100%"), sample, 3).mean_s,
            0.0);
}

}  // namespace
}  // namespace fluid::sim
