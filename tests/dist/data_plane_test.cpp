// The master's event-driven data plane: every worker link has a receive
// path that files replies as they arrive, HA frames retire in completion
// order, and the serving-core lock is never held across a link wait.
// These tests pin the observable consequences — a later request does not
// queue behind an earlier one's round trip, a reply the worker reorders
// resolves first, the control plane answers while the window is full,
// and a crash with a full window still resolves every future exactly
// once with the survivors' bitwise logits.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/tensor_ops.h"
#include "dist/master.h"
#include "dist/worker.h"
#include "nn/checkpoint.h"
#include "train/model_zoo.h"

namespace fluid::dist {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

core::Tensor Sample(core::Rng& rng, std::int64_t n = 1) {
  return core::Tensor::UniformRandom({n, 1, 28, 28}, rng, 0, 1);
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Master + one worker on a link with `one_way` latency each direction,
/// deployed for HA (front local, back remote) plus the master-resident
/// lower-50% slice as the failover target.
class HaFleet {
 public:
  HaFleet(std::chrono::duration<double> one_way, BatchOptions opts)
      : fluid_(slim::FluidModel::PaperDefault(7)), master_(cfg_) {
    auto [m, w] = MakeEmulatedLinkPair(one_way, 0.0);
    worker_ = std::make_unique<WorkerNode>("w0", cfg_, std::move(w));
    worker_->Start();
    master_.AttachWorker(std::move(m));
    const auto& family = fluid_.family();
    nn::Sequential combined = fluid_.ExtractSubnet(family.Combined());
    auto halves = train::SplitConvNet(cfg_, family.max_width(), combined, 2);
    master_.DeployLocal("front", std::move(halves.front));
    master_.DeployLocal("lower50",
                        fluid_.ExtractSubnet(family.MasterResident()));
    EXPECT_TRUE(master_
                    .DeployToWorker("back",
                                    ModelBlueprint::PipelineBack(
                                        cfg_, family.max_width(), 2),
                                    nn::ExtractState(halves.back), 5000ms)
                    .ok());
    master_.SetPlan({"lower50", "", "front", "back", 0});
    master_.SetMode(sim::Mode::kHighAccuracy);
    master_.StartServing(opts);
  }
  ~HaFleet() {
    master_.StopServing();
    worker_->Stop();
  }

  slim::FluidNetConfig cfg_;
  slim::FluidModel fluid_;
  MasterNode master_;
  std::unique_ptr<WorkerNode> worker_;
};

BatchOptions WindowOptions(std::size_t chunk, std::size_t window) {
  BatchOptions opts;
  opts.max_delay = 0ms;
  opts.ha_chunk = chunk;
  opts.ha_window = window;
  return opts;
}

TEST(DataPlaneTest, LaterRequestResolvesOneRoundTripAfterItsOwnSubmit) {
  // 50 ms each way: a 100 ms round trip. B arrives 20 ms after A. With
  // the window open B ships on arrival, so it resolves ~20 ms after A —
  // not a whole round trip after A's reply, as a loop that refills only
  // after awaiting its oldest frame would make it.
  constexpr double kRttMs = 100.0;
  HaFleet fleet(50ms, WindowOptions(8, 32));
  core::Rng rng(3);
  ASSERT_TRUE(fleet.master_.InferAsync(Sample(rng), 5000ms).get().ok());

  auto a = fleet.master_.InferAsync(Sample(rng), 5000ms);
  std::this_thread::sleep_for(20ms);
  const auto b_submit = Clock::now();
  auto b = fleet.master_.InferAsync(Sample(rng), 5000ms);
  ASSERT_TRUE(a.get().ok());
  const auto a_done = Clock::now();
  ASSERT_TRUE(b.get().ok());
  const double b_after_a = MsSince(a_done);
  const double b_latency = MsSince(b_submit);
  EXPECT_LT(b_after_a, kRttMs / 2) << "B waited behind A's reply";
  EXPECT_LT(b_latency, kRttMs * 1.5);
}

TEST(DataPlaneTest, ReplyReorderedAheadOfAnOlderFrameResolvesFirst) {
  // Scripted back half: hold the first cut frame until a second one
  // arrives, answer the more urgent class at once and the other 150 ms
  // later. The high-class request must resolve on its own reply — it
  // must not wait for the older low-class frame's.
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [master_end, worker_end] = MakeInMemoryPair();
  master.AttachWorker(std::move(master_end));
  std::atomic<bool> stop{false};
  std::thread scripted([&stop, end = std::move(worker_end)]() mutable {
    std::vector<Message> held;
    auto answer = [&end](const Message& m) {
      const std::int64_t rows = m.payload.shape()[0];
      (void)end->Send(Message::WithBatch(MsgType::kResult, m.seq, m.tag,
                                         core::Tensor({rows, 10})));
    };
    while (!stop) {
      Message msg;
      if (!end->Recv(msg, 20ms).ok()) continue;
      if (msg.type != MsgType::kInfer) {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
        continue;
      }
      held.push_back(std::move(msg));
      if (held.size() < 2) continue;
      const std::size_t first = held[1].priority < held[0].priority ? 1 : 0;
      answer(held[first]);
      std::this_thread::sleep_for(150ms);
      answer(held[1 - first]);
      held.clear();
    }
    end->Close();
  });

  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential combined = fluid.ExtractSubnet(fluid.family().Combined());
  auto halves =
      train::SplitConvNet(cfg, fluid.family().max_width(), combined, 2);
  master.DeployLocal("front", std::move(halves.front));
  ASSERT_TRUE(master
                  .DeployToWorker("back",
                                  ModelBlueprint::PipelineBack(
                                      cfg, fluid.family().max_width(), 2),
                                  nn::ExtractState(halves.back))
                  .ok());
  master.SetPlan({"", "", "front", "back", 0});
  master.SetMode(sim::Mode::kHighAccuracy);
  master.StartServing(WindowOptions(1, 8));

  core::Rng rng(5);
  SubmitOptions low;
  low.priority = Priority::kLow;
  low.timeout = 5000ms;
  SubmitOptions high = low;
  high.priority = Priority::kHigh;
  auto low_reply = master.InferAsync(Sample(rng), low);
  std::this_thread::sleep_for(10ms);
  auto high_reply = master.InferAsync(Sample(rng), high);

  EXPECT_EQ(high_reply.wait_for(2s), std::future_status::ready);
  EXPECT_EQ(low_reply.wait_for(0ms), std::future_status::timeout)
      << "the high-class reply waited for the older low-class frame";
  EXPECT_TRUE(high_reply.get().ok());
  EXPECT_TRUE(low_reply.get().ok());
  EXPECT_EQ(master.stats().stale_replies, 0);
  master.StopServing();
  stop = true;
  scripted.join();
}

TEST(DataPlaneTest, ControlPlaneAnswersWithinARoundTripWhileTheWindowIsFull) {
  // Two one-row frames in flight on a 100 ms round trip and a backlog
  // behind them: the window stays full for several round trips. stats(),
  // a heartbeat probe and a deploy must each cost about one round trip
  // (their own), never a wait behind the pipeline's replies.
  constexpr double kRttMs = 100.0;
  HaFleet fleet(50ms, WindowOptions(1, 2));
  core::Rng rng(9);
  ASSERT_TRUE(fleet.master_.InferAsync(Sample(rng), 5000ms).get().ok());
  std::vector<std::future<core::StatusOr<InferReply>>> burst;
  for (int i = 0; i < 12; ++i) {
    burst.push_back(fleet.master_.InferAsync(Sample(rng), 10000ms));
  }
  std::this_thread::sleep_for(30ms);  // the window is full by now

  auto t0 = Clock::now();
  const MasterStats stats = fleet.master_.stats();
  EXPECT_LT(MsSince(t0), 20.0);
  EXPECT_GT(stats.batches, 0);

  t0 = Clock::now();
  EXPECT_EQ(fleet.master_.ProbeWorkers(2000ms), 1u);
  EXPECT_LT(MsSince(t0), kRttMs * 1.5);

  const auto& family = fleet.fluid_.family();
  nn::Sequential upper = fleet.fluid_.ExtractSubnet(family.WorkerResident());
  t0 = Clock::now();
  EXPECT_TRUE(fleet.master_
                  .DeployToWorker("upper50",
                                  ModelBlueprint::Standalone(
                                      fleet.cfg_, family.WorkerResident()
                                                      .range.width()),
                                  nn::ExtractState(upper), 2000ms)
                  .ok());
  EXPECT_LT(MsSince(t0), kRttMs * 1.5);
  EXPECT_FALSE(burst.back().wait_for(0ms) == std::future_status::ready)
      << "the window drained before the control calls were measured";

  for (auto& f : burst) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(fleet.master_.stats().failovers, 0);
}

TEST(DataPlaneTest, CrashWithAFullWindowResolvesEveryFutureOnceBitwise) {
  // Scripted back half that swallows cut frames and dies once the window
  // is full: every in-flight frame fails over to the master-resident
  // lower-50% slice, and every future resolves exactly once with logits
  // bitwise-equal to that slice's own forward of the request.
  constexpr std::size_t kWindow = 4;
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [master_end, worker_end] = MakeInMemoryPair();
  master.AttachWorker(std::move(master_end));
  std::thread scripted([end = std::move(worker_end)]() mutable {
    std::size_t swallowed = 0;
    while (swallowed < kWindow) {
      Message msg;
      if (!end->Recv(msg, 20ms).ok()) continue;
      if (msg.type == MsgType::kInfer) {
        ++swallowed;
      } else {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
      }
    }
    end->Close();  // power failure with the whole window unanswered
  });

  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential combined = fluid.ExtractSubnet(fluid.family().Combined());
  auto halves =
      train::SplitConvNet(cfg, fluid.family().max_width(), combined, 2);
  master.DeployLocal("front", std::move(halves.front));
  master.DeployLocal("lower50",
                     fluid.ExtractSubnet(fluid.family().MasterResident()));
  ASSERT_TRUE(master
                  .DeployToWorker("back",
                                  ModelBlueprint::PipelineBack(
                                      cfg, fluid.family().max_width(), 2),
                                  nn::ExtractState(halves.back))
                  .ok());
  master.SetPlan({"lower50", "", "front", "back", 0});
  master.SetMode(sim::Mode::kHighAccuracy);
  master.StartServing(WindowOptions(1, kWindow));

  nn::Sequential reference =
      fluid.ExtractSubnet(fluid.family().MasterResident());
  core::Rng rng(17);
  std::vector<core::Tensor> inputs;
  std::vector<std::future<core::StatusOr<InferReply>>> replies;
  for (int i = 0; i < 12; ++i) {
    inputs.push_back(Sample(rng, 1 + i % 3));
    replies.push_back(master.InferAsync(inputs.back().Clone(), 5000ms));
  }
  for (std::size_t i = 0; i < replies.size(); ++i) {
    auto reply = replies[i].get();  // a second resolution would throw
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const core::Tensor want = reference.Forward(inputs[i], false);
    ASSERT_EQ(reply->logits.shape(), want.shape());
    EXPECT_EQ(core::MaxAbsDiff(reply->logits, want), 0.0F) << "request " << i;
    EXPECT_EQ(reply->served_by, "master:lower50");
  }
  EXPECT_FALSE(master.WorkerAlive(0));
  EXPECT_GE(master.stats().failovers, 1);
  EXPECT_EQ(master.stats().served_pipeline, 0);
  master.StopServing();
  scripted.join();
}

TEST(DataPlaneTest, SilentBackHalfIsCondemnedWhenAFrameOutlivesItsDeadline) {
  // The link stays up but the back half never answers a cut frame: when
  // the frame's deadline passes, its full window has run out — the worker
  // is condemned and the rows fail over (late, but served).
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [master_end, worker_end] = MakeInMemoryPair();
  master.AttachWorker(std::move(master_end));
  std::atomic<bool> stop{false};
  std::thread silent([&stop, end = std::move(worker_end)]() mutable {
    while (!stop) {
      Message msg;
      if (!end->Recv(msg, 20ms).ok()) continue;
      if (msg.type != MsgType::kInfer) {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
      }
    }
  });

  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential combined = fluid.ExtractSubnet(fluid.family().Combined());
  auto halves =
      train::SplitConvNet(cfg, fluid.family().max_width(), combined, 2);
  master.DeployLocal("front", std::move(halves.front));
  master.DeployLocal("lower50",
                     fluid.ExtractSubnet(fluid.family().MasterResident()));
  ASSERT_TRUE(master
                  .DeployToWorker("back",
                                  ModelBlueprint::PipelineBack(
                                      cfg, fluid.family().max_width(), 2),
                                  nn::ExtractState(halves.back))
                  .ok());
  master.SetPlan({"lower50", "", "front", "back", 0});
  master.SetMode(sim::Mode::kHighAccuracy);
  master.StartServing(WindowOptions(1, 4));

  core::Rng rng(29);
  auto reply = master.InferAsync(Sample(rng, 2), 150ms).get();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->served_by, "master:lower50");
  EXPECT_FALSE(master.WorkerAlive(0));
  EXPECT_GE(master.stats().failovers, 1);
  master.StopServing();
  stop = true;
  silent.join();
}

}  // namespace
}  // namespace fluid::dist
