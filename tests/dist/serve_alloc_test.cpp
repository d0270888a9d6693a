// Steady-state memory discipline on the live serve path, measured with
// the counting allocator (core/alloc_count.h): once the pools are warm,
// a model forward allocates nothing, and a full closed-loop request —
// RPC framing, wire transfer, shard scatter/gather — stays within a
// pinned per-request budget far below one allocation per layer.
//
// The warmup loops matter: the first requests grow thread-local GEMM
// scratch, fill the buffer-pool free lists and let the thread pool's
// dynamic chunk assignment visit every worker. The tests measure only
// after a full pass with zero (or stable) heap traffic has been observed.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>

#include <gtest/gtest.h>

#include "core/alloc_count.h"
#include "core/buffer_pool.h"
#include "core/rng.h"
#include "dist/master.h"
#include "dist/worker.h"
#include "nn/checkpoint.h"
#include "nn/compiled_net.h"
#include "obs/trace.h"
#include "train/model_zoo.h"

namespace fluid::dist {
namespace {

using namespace std::chrono_literals;

std::uint64_t AllocsDuring(const std::function<void()>& fn) {
  const auto before = core::AllocCount();
  fn();
  return core::AllocCount() - before;
}

// Run `fn` until one full pass touches the heap `target` times or fewer
// (the pools are warm), then return true. False if `tries` passes never
// get there.
bool WarmUntilStable(const std::function<void()>& fn, std::uint64_t target,
                     int tries = 50) {
  for (int i = 0; i < tries; ++i) {
    if (AllocsDuring(fn) <= target) return true;
  }
  return false;
}

TEST(ForwardAllocTest, Fp32ForwardReachesZeroSteadyStateAllocs) {
  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential model = fluid.ExtractSubnet(fluid.family().Combined());
  core::Rng rng(11);
  const core::Tensor x = core::Tensor::UniformRandom({4, 1, 28, 28}, rng, 0, 1);
  auto forward = [&] {
    core::Tensor out = model.Forward(x, false);
    core::RecycleTensor(std::move(out));
  };
  ASSERT_TRUE(WarmUntilStable(forward, 0))
      << "fp32 forward never reached an alloc-free pass";
  // Once reached, it must hold: the pools ping-pong every activation.
  const auto before = core::AllocCount();
  for (int i = 0; i < 10; ++i) forward();
  EXPECT_EQ(core::AllocCount() - before, 0u);
}

TEST(ForwardAllocTest, Int8ForwardReachesZeroSteadyStateAllocs) {
  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential model =
      fluid.ExtractSubnetQuantized(fluid.family().Combined());
  core::Rng rng(12);
  const core::Tensor x = core::Tensor::UniformRandom({4, 1, 28, 28}, rng, 0, 1);
  auto forward = [&] {
    core::Tensor out = model.Forward(x, false);
    core::RecycleTensor(std::move(out));
  };
  ASSERT_TRUE(WarmUntilStable(forward, 0))
      << "int8 forward never reached an alloc-free pass";
  const auto before = core::AllocCount();
  for (int i = 0; i < 10; ++i) forward();
  EXPECT_EQ(core::AllocCount() - before, 0u);
}

// The same discipline on the compiled plans every serve path runs: pooled
// activations and grow-only scratch, so a warm forward allocates nothing —
// fp32 (direct kernels) and int8 (generic steps over the quant layers).
void ExpectCompiledForwardAllocFree(nn::Sequential model, std::uint64_t seed) {
  nn::CompiledNet plan(std::move(model));
  core::Rng rng(seed);
  const core::Tensor x = core::Tensor::UniformRandom({4, 1, 28, 28}, rng, 0, 1);
  auto forward = [&] {
    core::RecycleTensor(plan.Forward(x));
    core::RecycleTensor(plan.Forward(core::AcquireTensorCopy(x)));
  };
  ASSERT_TRUE(WarmUntilStable(forward, 0))
      << "compiled forward never reached an alloc-free pass";
  const auto before = core::AllocCount();
  for (int i = 0; i < 10; ++i) forward();
  EXPECT_EQ(core::AllocCount() - before, 0u);
}

TEST(ForwardAllocTest, CompiledFp32ForwardReachesZeroSteadyStateAllocs) {
  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  ExpectCompiledForwardAllocFree(
      fluid.ExtractSubnet(fluid.family().Combined()), 13);
}

TEST(ForwardAllocTest, CompiledInt8ForwardReachesZeroSteadyStateAllocs) {
  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  ExpectCompiledForwardAllocFree(
      fluid.ExtractSubnetQuantized(fluid.family().Combined()), 14);
}

// One master + one worker over the in-memory pair — the closed-loop
// topology of the serving bench, scaled down.
class ServeAllocTest : public ::testing::Test {
 protected:
  ServeAllocTest()
      : fluid_(slim::FluidModel::PaperDefault(7)), master_(cfg_), rng_(31) {
    // Start from a deterministic pool state: earlier tests in the same
    // process park buffers of their own shapes on the global lists, which
    // shifts which classes this fixture's warmup leaves cold.
    core::PoolFlushThisThread();
    core::PoolTrimGlobal();
    auto [master_end, worker_end] = MakeInMemoryPair();
    worker_ = std::make_unique<WorkerNode>("w0", cfg_, std::move(worker_end));
    worker_->Start();
    master_.AttachWorker(std::move(master_end));
  }

  void DeployPaperPlan(bool quant_pipeline = false,
                       bool quant_input = false) {
    const auto& family = fluid_.family();
    master_.DeployLocal("lower50",
                        fluid_.ExtractSubnet(family.MasterResident()));
    nn::Sequential combined = fluid_.ExtractSubnet(family.Combined());
    auto halves = train::SplitConvNet(cfg_, family.max_width(), combined, 2);
    master_.DeployLocal("front", std::move(halves.front));
    auto back_bp = ModelBlueprint::PipelineBack(cfg_, family.max_width(), 2);
    back_bp.quant.int8_wire = quant_pipeline;
    ASSERT_TRUE(master_
                    .DeployToWorker("back", back_bp,
                                    nn::ExtractState(halves.back))
                    .ok());
    nn::Sequential upper = fluid_.ExtractSubnet(family.WorkerResident());
    auto upper_bp =
        ModelBlueprint::Standalone(cfg_, family.WorkerResident().range.width());
    upper_bp.quant.int8_input_wire = quant_input;
    ASSERT_TRUE(master_
                    .DeployToWorker("upper50", upper_bp,
                                    nn::ExtractState(upper))
                    .ok());
    master_.SetPlan({"lower50", "upper50", "front", "back"});
  }

  // HT mode round-robins single requests between the master's slice and
  // the worker, so one warmup pass must visit both: a pass of one request
  // could stop the warmup before the other side's first forward, and its
  // one-time scratch and pool growth would land in the measured window.
  void ServeBothTargets() {
    ServeOne();
    ServeOne();
  }

  // One closed-loop request; the reply's logits recycle so the next
  // request's buffers come from the pool, like the bench clients do.
  void ServeOne() {
    auto reply = master_.Infer(x_, 5000ms);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    core::RecycleTensor(std::move(reply->logits));
  }

  // Average allocations and heap bytes per request over `n` requests.
  struct PerRequestCost {
    double allocs = 0;
    double bytes = 0;
  };
  PerRequestCost MeasurePerRequest(int n) {
    const auto pool_before = core::PoolStatsSnapshot();
    const auto allocs_before = core::AllocCount();
    const auto bytes_before = core::AllocBytes();
    for (int i = 0; i < n; ++i) ServeOne();
    PerRequestCost cost;
    cost.allocs = static_cast<double>(core::AllocCount() - allocs_before) / n;
    cost.bytes = static_cast<double>(core::AllocBytes() - bytes_before) / n;
    const auto pool = core::PoolStatsSnapshot();
    std::printf("  [steady state: %.2f allocs/req, %.0f bytes/req; pool "
                "%.2f gets %.2f hits %.2f discards /req]\n",
                cost.allocs, cost.bytes,
                static_cast<double>(pool.gets - pool_before.gets) / n,
                static_cast<double>(pool.hits - pool_before.hits) / n,
                static_cast<double>(pool.discards - pool_before.discards) / n);
    return cost;
  }

  slim::FluidNetConfig cfg_;
  slim::FluidModel fluid_;
  MasterNode master_;
  std::unique_ptr<WorkerNode> worker_;
  core::Rng rng_;
  const core::Tensor x_ =
      core::Tensor::UniformRandom({1, 1, 28, 28}, rng_, 0, 1);
};

// The sync (scheduler-off) path: request bookkeeping, one RPC every
// other request (round-robin master/worker), wire encode/decode. The
// budget pins the measured steady state (~3.9 allocs / ~0.8 KB per
// request — the attribution vector plus RPC control blocks; the shared
// labels are interned at SetPlan, and shared-first routing keeps the
// large classes from the old ~1 % pool-miss tail) with headroom; the
// pre-pool baseline was ~35 allocs and ~9 KB.
TEST_F(ServeAllocTest, SyncServePathStaysWithinAllocBudget) {
  DeployPaperPlan();
  master_.SetMode(sim::Mode::kHighThroughput);
  ASSERT_TRUE(WarmUntilStable([&] { ServeBothTargets(); }, 12))
      << "sync serve path never stabilized";
  const PerRequestCost cost = MeasurePerRequest(50);
  EXPECT_LE(cost.allocs, 6.0);
  EXPECT_LE(cost.bytes, 1536.0);
}

// Scheduler on: adds the promise/future pair and queue hand-off per
// request — a few more irreducible control allocations, still bounded.
TEST_F(ServeAllocTest, AsyncBatchedServePathStaysWithinAllocBudget) {
  DeployPaperPlan();
  master_.SetMode(sim::Mode::kHighThroughput);
  master_.StartServing(BatchOptions{});
  ASSERT_TRUE(WarmUntilStable([&] { ServeBothTargets(); }, 24))
      << "async serve path never stabilized";
  const PerRequestCost cost = MeasurePerRequest(50);
  EXPECT_LE(cost.allocs, 12.0);
  EXPECT_LE(cost.bytes, 2560.0);
  master_.StopServing();
}

// HighAccuracy int8 pipeline, scheduler off: per chunk, the cut
// activations quantize into pooled staging and cross the wire as v3
// frames; the reply logits land in a pooled tensor. Budget covers the
// chunk bookkeeping (in-flight queue, seq tracking, label strings).
TEST_F(ServeAllocTest, QuantPipelineSyncServeStaysWithinAllocBudget) {
  DeployPaperPlan(/*quant_pipeline=*/true);
  master_.SetMode(sim::Mode::kHighAccuracy);
  ASSERT_TRUE(WarmUntilStable([&] { ServeOne(); }, 11))
      << "quant pipeline serve path never stabilized";
  const PerRequestCost cost = MeasurePerRequest(50);
  EXPECT_LE(cost.allocs, 11.0);
  EXPECT_LE(cost.bytes, 1024.0);
  EXPECT_GT(master_.stats().quant_cut_frames, 0u);
}

// HighAccuracy int8 pipeline behind the scheduler — the configuration
// the open-loop bench drives at 900 req/s.
TEST_F(ServeAllocTest, QuantPipelineAsyncServeStaysWithinAllocBudget) {
  DeployPaperPlan(/*quant_pipeline=*/true);
  master_.SetMode(sim::Mode::kHighAccuracy);
  master_.StartServing(BatchOptions{});
  ASSERT_TRUE(WarmUntilStable([&] { ServeOne(); }, 16))
      << "quant pipeline async serve path never stabilized";
  const PerRequestCost cost = MeasurePerRequest(50);
  EXPECT_LE(cost.allocs, 16.0);
  EXPECT_LE(cost.bytes, 3584.0);
  master_.StopServing();
}

// Observability on: the async budget above must hold unchanged with
// 1-in-16 sampled tracing and the v6 trace block active on the link (the
// cluster bench's operating point). A sampled-out request pays one
// relaxed counter bump; a sampled request's spans are POD copies into
// the tracer's preallocated ring and the trace block rides the pooled
// encode buffer — none of it may show up in the per-request heap numbers.
TEST_F(ServeAllocTest, AsyncServeBudgetUnchangedWithSampledTracing) {
  DeployPaperPlan();
  master_.SetMode(sim::Mode::kHighThroughput);
  master_.StartServing(BatchOptions{});
  master_.EnableTraceWire(0);
  auto serve_traced = [&] {
    SubmitOptions so;
    so.timeout = 5000ms;
    // The router's front door, inlined: 1 in N requests carries a trace.
    so.trace_id = obs::Tracer::Global().MaybeStartTrace();
    // Pooled input copy, like Infer and the bench clients — a plain copy
    // of x_ would charge a fresh 3 KB heap tensor to every request.
    auto reply = master_.InferAsync(core::AcquireTensorCopy(x_), so).get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    core::RecycleTensor(std::move(reply->logits));
  };
  // Warm with every request traced so the one-time registrations (the
  // wire-latency histogram's shard buckets on the first traced reply)
  // land outside the measured window, then drop to the 1-in-16 rate.
  obs::Tracer::Global().SetSampleEvery(1);
  for (int i = 0; i < 8; ++i) serve_traced();
  obs::Tracer::Global().SetSampleEvery(16);
  ASSERT_TRUE(WarmUntilStable(serve_traced, 12))
      << "traced async serve path never stabilized";
  const auto pool_before = core::PoolStatsSnapshot();
  const auto allocs_before = core::AllocCount();
  const auto bytes_before = core::AllocBytes();
  const auto spans_before = obs::Tracer::Global().recorded();
  const int n = 64;  // 4 sampled requests at 1-in-16
  for (int i = 0; i < n; ++i) serve_traced();
  const double allocs =
      static_cast<double>(core::AllocCount() - allocs_before) / n;
  const double bytes =
      static_cast<double>(core::AllocBytes() - bytes_before) / n;
  const auto pool = core::PoolStatsSnapshot();
  std::printf("  [traced steady state: %.2f allocs/req, %.0f bytes/req; pool "
              "%.2f gets %.2f hits %.2f discards /req]\n",
              allocs, bytes,
              static_cast<double>(pool.gets - pool_before.gets) / n,
              static_cast<double>(pool.hits - pool_before.hits) / n,
              static_cast<double>(pool.discards - pool_before.discards) / n);
  // Same pins as AsyncBatchedServePathStaysWithinAllocBudget.
  EXPECT_LE(allocs, 12.0);
  EXPECT_LE(bytes, 2560.0);
  // And tracing really was live: the sampled requests recorded spans.
  EXPECT_GT(obs::Tracer::Global().recorded(), spans_before);
  obs::Tracer::Global().SetSampleEvery(0);
  master_.StopServing();
}

// ---- wire bytes per request -------------------------------------------------
// The same budget-pinning discipline applied to the data plane: wire
// bytes/frames per request from the master's link counters. In HT the
// single-sample request round-robins between the local slice and the
// worker, so every OTHER request ships one input frame and receives one
// logits frame — the per-request averages below are half a frame each.

struct PerRequestWire {
  double bytes_sent = 0;
  double bytes_recv = 0;
  double frames_sent = 0;
};

TEST_F(ServeAllocTest, HtFanOutWireBytesPerRequestWithinBudget) {
  DeployPaperPlan();
  master_.SetMode(sim::Mode::kHighThroughput);
  for (int i = 0; i < 10; ++i) ServeOne();  // settle the round-robin
  const WireStats before = master_.wire_stats();
  const int n = 50;
  for (int i = 0; i < n; ++i) ServeOne();
  const WireStats after = master_.wire_stats();
  PerRequestWire wire;
  wire.bytes_sent = static_cast<double>(after.bytes_sent - before.bytes_sent) / n;
  wire.bytes_recv = static_cast<double>(after.bytes_recv - before.bytes_recv) / n;
  wire.frames_sent =
      static_cast<double>(after.frames_sent - before.frames_sent) / n;
  std::printf("  [fp32 wire: %.0f B sent, %.0f B recv, %.2f frames /req]\n",
              wire.bytes_sent, wire.bytes_recv, wire.frames_sent);
  // A [1,1,28,28] fp32 shard is 3136 B of payload; with framing and the
  // 1-in-2 round-robin the steady state is ~1600 B sent per request.
  EXPECT_GT(wire.bytes_sent, 0.0);
  EXPECT_LE(wire.bytes_sent, 1800.0);
  EXPECT_LE(wire.frames_sent, 0.75);
}

TEST_F(ServeAllocTest, QuantInputHtFanOutWireBytesPerRequestWithinBudget) {
  DeployPaperPlan(/*quant_pipeline=*/false, /*quant_input=*/true);
  master_.SetMode(sim::Mode::kHighThroughput);
  for (int i = 0; i < 10; ++i) ServeOne();
  const WireStats before = master_.wire_stats();
  const int n = 50;
  for (int i = 0; i < n; ++i) ServeOne();
  const WireStats after = master_.wire_stats();
  PerRequestWire wire;
  wire.bytes_sent = static_cast<double>(after.bytes_sent - before.bytes_sent) / n;
  wire.bytes_recv = static_cast<double>(after.bytes_recv - before.bytes_recv) / n;
  wire.frames_sent =
      static_cast<double>(after.frames_sent - before.frames_sent) / n;
  std::printf("  [int8 wire: %.0f B sent, %.0f B recv, %.2f frames /req]\n",
              wire.bytes_sent, wire.bytes_recv, wire.frames_sent);
  // The v5 shard carries the same 784 samples as one int8 byte each plus
  // the scale — the pinned budget is under a third of the fp32 pin above,
  // locking in the 4x payload economy at the budget level.
  EXPECT_GT(wire.bytes_sent, 0.0);
  EXPECT_LE(wire.bytes_sent, 600.0);
  EXPECT_GT(master_.stats().quant_input_frames, 0u);
  // Replies are fp32 logits either way: the economy is send-side only.
  EXPECT_LE(wire.bytes_recv, 256.0);
}

}  // namespace
}  // namespace fluid::dist
