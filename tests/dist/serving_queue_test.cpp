#include "dist/serving_queue.h"

#include <gtest/gtest.h>

#include <atomic>
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

core::Tensor Sample(core::Rng& rng, std::int64_t n = 1) {
  return core::Tensor::UniformRandom({n, 1, 28, 28}, rng, 0, 1);
}

// ---------------------------------------------------------------------------
// BatchScheduler unit tests (stub serve callback, no master involved).
// ---------------------------------------------------------------------------

// Serve-side stub: pulls chunks like the master's drain loop, with a gate
// so tests control exactly when each chunk completes. Default gating is
// post-assembly (the chunk is grabbed, then held in service while more work
// arrives); `gate_before_grab` holds the *assembly* itself, for tests that
// stage the pool between chunk boundaries.
struct StubServe {
  std::mutex mu;
  std::condition_variable cv;
  bool gate_before_grab = false;
  bool open = false;
  int permits = 0;

  struct Rec {
    std::int64_t rows;
    std::size_t slices;
    Priority top;
    const BatchScheduler::Request* first;
    std::chrono::steady_clock::time_point urgent;
  };
  std::vector<Rec> chunks;

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }

  void Allow(int n) {
    {
      std::lock_guard<std::mutex> lock(mu);
      permits += n;
    }
    cv.notify_all();
  }

  std::size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return chunks.size();
  }

  Rec At(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return chunks.at(i);
  }

  void Gate() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open || permits > 0; });
    if (!open) --permits;
  }

  BatchScheduler::ServeFn Fn() {
    return [this](BatchScheduler& sched) {
      BatchScheduler::WorkChunk chunk;
      for (;;) {
        if (gate_before_grab) Gate();
        if (!sched.NextChunk(sched.options().max_batch, 1ms, chunk)) return;
        if (!gate_before_grab) Gate();
        {
          std::lock_guard<std::mutex> lock(mu);
          chunks.push_back({chunk.rows, chunk.slices.size(), chunk.top,
                            chunk.slices.front().req, chunk.urgent_deadline});
        }
        core::Tensor logits({chunk.rows, 1});
        sched.CompleteChunk(chunk, logits, "stub");
      }
    };
  }
};

TEST(BatchSchedulerTest, CoalescesQueuedRequestsIntoOneChunk) {
  core::Rng rng(1);
  StubServe serve;
  BatchOptions opts;
  opts.max_batch = 8;
  opts.max_delay = 5ms;
  BatchScheduler scheduler(opts, serve.Fn());

  // First submit is grabbed alone while the gate holds its chunk in
  // service; the next four pool up behind it and must assemble into ONE
  // chunk — one slice per request — at the next chunk boundary.
  auto first = scheduler.Submit(Sample(rng), 2000ms);
  // Wait until the drain thread has the first request in a chunk (depth 0).
  for (int spin = 0; spin < 200 && scheduler.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  std::vector<std::future<core::StatusOr<InferReply>>> rest;
  for (int i = 0; i < 4; ++i) rest.push_back(scheduler.Submit(Sample(rng), 2000ms));
  serve.Release();

  ASSERT_TRUE(first.get().ok());
  for (auto& f : rest) ASSERT_TRUE(f.get().ok());

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 5);
  EXPECT_EQ(stats.completed, 5);
  EXPECT_EQ(stats.coalesced_samples, 5);
  ASSERT_EQ(serve.Count(), 2u);
  EXPECT_EQ(serve.At(0).rows, 1);
  EXPECT_EQ(serve.At(1).rows, 4);
  EXPECT_EQ(serve.At(1).slices, 4u);  // four requests rode one chunk
  EXPECT_NEAR(stats.avg_batch, 2.5, 1e-9);
  EXPECT_EQ(stats.active_requests, 0);
  EXPECT_EQ(stats.running_requests, 0);
  // Occupancy is an EMA over the *active pool* (per-assembly samples of
  // active_requests / max_active_reqs) — nonzero once anything served.
  EXPECT_GT(stats.occupancy, 0.0);
  EXPECT_LE(stats.occupancy, 1.0);
}

TEST(BatchSchedulerTest, BoundedQueueBlocksSubmitUntilSpace) {
  core::Rng rng(2);
  StubServe serve;
  BatchOptions opts;
  opts.max_batch = 4;
  opts.queue_capacity = 4;
  opts.max_delay = 1ms;
  BatchScheduler scheduler(opts, serve.Fn());

  auto first = scheduler.Submit(Sample(rng), 2000ms);
  for (int spin = 0; spin < 200 && scheduler.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  std::vector<std::future<core::StatusOr<InferReply>>> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(scheduler.Submit(Sample(rng), 2000ms));
  }
  // Queue is at capacity: the 6th submit must block (backpressure), then
  // complete once the drain thread frees space.
  std::atomic<bool> submitted{false};
  std::thread blocked([&] {
    auto f = scheduler.Submit(Sample(rng), 2000ms);
    submitted = true;
    ASSERT_TRUE(f.get().ok());
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(submitted.load());
  serve.Release();
  blocked.join();
  EXPECT_TRUE(submitted.load());
  ASSERT_TRUE(first.get().ok());
  for (auto& f : queued) ASSERT_TRUE(f.get().ok());
}

TEST(BatchSchedulerTest, StopFailsEverythingStillQueued) {
  core::Rng rng(3);
  StubServe serve;
  BatchOptions opts;
  opts.max_batch = 2;
  opts.max_delay = 1ms;
  BatchScheduler scheduler(opts, serve.Fn());

  auto in_flight = scheduler.Submit(Sample(rng), 2000ms);
  for (int spin = 0; spin < 200 && scheduler.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  auto orphan1 = scheduler.Submit(Sample(rng), 2000ms);
  auto orphan2 = scheduler.Submit(Sample(rng), 2000ms);

  std::thread stopper([&] { scheduler.Stop(); });
  std::this_thread::sleep_for(10ms);
  serve.Release();  // let the in-flight batch finish so Stop can join
  stopper.join();

  EXPECT_TRUE(in_flight.get().ok());
  auto r1 = orphan1.get();
  auto r2 = orphan2.get();
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), core::StatusCode::kUnavailable);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), core::StatusCode::kUnavailable);
  EXPECT_FALSE(scheduler.running());

  auto late = scheduler.Submit(Sample(rng), 100ms);
  EXPECT_EQ(late.get().status().code(), core::StatusCode::kUnavailable);
}

TEST(BatchSchedulerTest, BackpressureHonorsTheRequestTimeout) {
  core::Rng rng(7);
  StubServe serve;
  BatchOptions opts;
  opts.max_batch = 4;
  opts.queue_capacity = 4;
  opts.max_delay = 1ms;
  BatchScheduler scheduler(opts, serve.Fn());

  auto first = scheduler.Submit(Sample(rng), 2000ms);
  for (int spin = 0; spin < 200 && scheduler.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  std::vector<std::future<core::StatusOr<InferReply>>> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(scheduler.Submit(Sample(rng), 2000ms));
  }
  // Queue at capacity and the drain thread gated: a short-deadline submit
  // must fail with kDeadlineExceeded instead of blocking its caller until
  // Stop() — the caller's budget bounds the backpressure wait.
  const auto t0 = std::chrono::steady_clock::now();
  auto rejected = scheduler.Submit(Sample(rng), 50ms).get();
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_LT(waited, 1500ms);

  serve.Release();
  ASSERT_TRUE(first.get().ok());
  for (auto& f : queued) ASSERT_TRUE(f.get().ok());
  EXPECT_EQ(scheduler.stats().submitted, 5);  // the rejected one never entered
}

TEST(BatchSchedulerTest, RejectsInputWithoutABatchDim) {
  StubServe serve;
  serve.Release();
  BatchScheduler scheduler(BatchOptions{}, serve.Fn());
  auto result = scheduler.Submit(core::Tensor(), 100ms).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
}

TEST(BatchSchedulerTest, AdmissionCapBoundsTheActivePool) {
  core::Rng rng(4);
  StubServe serve;
  BatchOptions opts;
  opts.max_batch = 1;
  opts.max_active_reqs = 2;
  BatchScheduler scheduler(opts, serve.Fn());

  // r1 is grabbed into a chunk (RUNNING) and gated; r2 fills the second
  // and last active slot (READY). A third submit must block on admission
  // even though the backlog is far under queue_capacity.
  auto r1 = scheduler.Submit(Sample(rng), 2000ms);
  for (int spin = 0; spin < 200 && scheduler.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  auto r2 = scheduler.Submit(Sample(rng), 2000ms);
  std::atomic<bool> admitted{false};
  std::thread burst([&] {
    auto r3 = scheduler.Submit(Sample(rng), 2000ms);
    admitted = true;
    ASSERT_TRUE(r3.get().ok());
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(scheduler.stats().submitted, 2);  // r3 not yet admitted
  EXPECT_EQ(scheduler.stats().active_requests, 2);

  serve.Release();  // r1 completes -> a slot frees -> r3 enters
  burst.join();
  EXPECT_TRUE(admitted.load());
  ASSERT_TRUE(r1.get().ok());
  ASSERT_TRUE(r2.get().ok());
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.max_active_seen, 2);  // the cap really did bound the pool
  EXPECT_EQ(stats.class_submitted[1], 3);
}

TEST(BatchSchedulerTest, StrictPriorityPreemptsLowerClassesAtChunkBoundaries) {
  core::Rng rng(5);
  StubServe serve;
  BatchOptions opts;
  opts.max_batch = 1;  // one-row chunks: the chunk order IS the schedule
  BatchScheduler scheduler(opts, serve.Fn());

  auto normal = scheduler.Submit(Sample(rng), 2000ms);
  for (int spin = 0; spin < 200 && scheduler.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  // Low arrives BEFORE high; class order must beat arrival order at the
  // next chunk boundary.
  auto low = scheduler.Submit(Sample(rng), SubmitOptions{2000ms, Priority::kLow});
  auto high =
      scheduler.Submit(Sample(rng), SubmitOptions{2000ms, Priority::kHigh});
  serve.Release();

  ASSERT_TRUE(normal.get().ok());
  ASSERT_TRUE(low.get().ok());
  ASSERT_TRUE(high.get().ok());
  ASSERT_EQ(serve.Count(), 3u);
  EXPECT_EQ(serve.At(0).top, Priority::kNormal);
  EXPECT_EQ(serve.At(1).top, Priority::kHigh);
  EXPECT_EQ(serve.At(2).top, Priority::kLow);
  const auto stats = scheduler.stats();
  // Exactly one preemptive decision: high's chunk filled while low waited.
  EXPECT_EQ(stats.preemptions, 1);
  EXPECT_EQ(stats.class_submitted[0], 1);
  EXPECT_EQ(stats.class_submitted[1], 1);
  EXPECT_EQ(stats.class_submitted[2], 1);
}

TEST(BatchSchedulerTest, EarliestDeadlineFirstWithinAClass) {
  core::Rng rng(8);
  StubServe serve;
  BatchOptions opts;
  opts.max_batch = 1;
  BatchScheduler scheduler(opts, serve.Fn());

  auto running = scheduler.Submit(Sample(rng), 2000ms);
  for (int spin = 0; spin < 200 && scheduler.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  // Same class, tighter budget submitted later: EDF must reorder.
  auto patient = scheduler.Submit(Sample(rng), 1500ms);
  auto urgent = scheduler.Submit(Sample(rng), 300ms);
  serve.Release();

  ASSERT_TRUE(running.get().ok());
  ASSERT_TRUE(patient.get().ok());
  ASSERT_TRUE(urgent.get().ok());
  ASSERT_EQ(serve.Count(), 3u);
  // Chunk 1 (urgent) carries a tighter deadline than chunk 2 (patient).
  EXPECT_LT(serve.At(1).urgent, serve.At(2).urgent);
}

TEST(BatchSchedulerTest, ExpiredReadyRequestFailsWithoutWastingService) {
  core::Rng rng(6);
  StubServe serve;
  BatchOptions opts;
  opts.max_batch = 1;
  BatchScheduler scheduler(opts, serve.Fn());

  auto running = scheduler.Submit(Sample(rng), 2000ms);
  for (int spin = 0; spin < 200 && scheduler.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  // This one expires while READY, behind the gated in-service chunk. At
  // the next chunk boundary it must fail kDeadlineExceeded — never reach
  // a chunk, never burn service on a result nobody is waiting for.
  auto doomed = scheduler.Submit(Sample(rng), 50ms);
  std::this_thread::sleep_for(80ms);
  serve.Release();

  ASSERT_TRUE(running.get().ok());
  auto r = doomed.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(serve.Count(), 1u);  // only the running request was ever served
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.deadline_misses, 1);
  EXPECT_EQ(stats.completed, 2);
}

TEST(BatchSchedulerTest, LateDeliveryStillDeliversAndCountsTheMiss) {
  core::Rng rng(9);
  StubServe serve;
  BatchScheduler scheduler(BatchOptions{}, serve.Fn());

  // The request is RUNNING (chunk in service) when its deadline passes:
  // serving late beats dropping, but the SLO miss must be counted.
  auto slow = scheduler.Submit(Sample(rng), 60ms);
  for (int spin = 0; spin < 200 && scheduler.stats().queue_depth > 0; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(100ms);
  serve.Release();
  auto r = slow.get();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(scheduler.stats().deadline_misses, 1);
}

TEST(BatchSchedulerTest, NewArrivalSplicesInAtTheNextChunkBoundary) {
  core::Rng rng(10);
  StubServe serve;
  serve.gate_before_grab = true;  // stage the pool between assemblies
  BatchOptions opts;
  opts.max_batch = 2;
  BatchScheduler scheduler(opts, serve.Fn());

  auto big = scheduler.Submit(Sample(rng, 6), 2000ms);
  serve.Allow(1);  // chunk 1: the big request's first two rows
  for (int spin = 0; spin < 400 && serve.Count() < 1; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(serve.Count(), 1u);
  // A high-class request lands mid-service: its first rows must lead the
  // NEXT chunk — time-to-first-chunk excludes the big request's residual
  // four rows.
  auto urgent =
      scheduler.Submit(Sample(rng), SubmitOptions{2000ms, Priority::kHigh});
  serve.Release();

  ASSERT_TRUE(urgent.get().ok());
  ASSERT_TRUE(big.get().ok());
  ASSERT_EQ(serve.Count(), 4u);  // rows [2], [urgent+1], [2], [1]
  EXPECT_EQ(serve.At(1).top, Priority::kHigh);
  EXPECT_EQ(serve.At(1).rows, 2);
  EXPECT_EQ(serve.At(1).slices, 2u);  // urgent + one resumed big row
  EXPECT_NE(serve.At(1).first, serve.At(0).first);  // urgent leads the chunk
  EXPECT_EQ(serve.At(3).rows, 1);
}

TEST(BatchSchedulerTest, MultiClientPriorityStressResolvesEveryRequest) {
  StubServe serve;
  serve.Release();  // no gating: full-speed continuous serving
  BatchOptions opts;
  opts.max_batch = 4;
  opts.max_active_reqs = 8;
  opts.queue_capacity = 64;
  opts.max_delay = 0ms;
  BatchScheduler scheduler(opts, serve.Fn());

  // Six clients, three classes, mixed sample counts, each keeping a small
  // window of submits in flight — 18 potential concurrent requests over a
  // pool of 8, so admission, preemption and chunk interleaving all run hot
  // concurrently. Every future must resolve ok. (The dist suite runs under
  // TSan in CI; this is the preemption-stress it checks.)
  constexpr int kClients = 6;
  constexpr int kPerClient = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      core::Rng rng(100 + c);
      std::vector<std::future<core::StatusOr<InferReply>>> window;
      for (int i = 0; i < kPerClient; ++i) {
        SubmitOptions o;
        o.timeout = 5000ms;
        o.priority = static_cast<Priority>((c + i) % 3);
        window.push_back(scheduler.Submit(Sample(rng, 1 + i % 3), o));
        if (window.size() == 3) {
          for (auto& f : window) {
            if (!f.get().ok()) ++failures;
          }
          window.clear();
        }
      }
      for (auto& f : window) {
        if (!f.get().ok()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.active_requests, 0);
  EXPECT_EQ(stats.running_requests, 0);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.class_submitted[0] + stats.class_submitted[1] +
                stats.class_submitted[2],
            kClients * kPerClient);
  EXPECT_GT(stats.max_active_seen, 1);
}

// ---------------------------------------------------------------------------
// Batched serving through a real master + workers fleet.
// ---------------------------------------------------------------------------

// Fleet where EVERY device (master + each worker) hosts the same slice
// weights, so routing cannot change logits — exactly what the coalescing /
// sharding / scatter equality tests need.
class BatchedServingTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWorkers = 2;

  BatchedServingTest()
      : fluid_(slim::FluidModel::PaperDefault(7)), master_(cfg_), rng_(99) {
    slice_ = std::make_unique<nn::Sequential>(
        fluid_.ExtractSubnet(fluid_.family().WorkerResident()));
    for (std::size_t i = 0; i < kWorkers; ++i) {
      auto [master_end, worker_end] = MakeInMemoryPair();
      workers_.push_back(std::make_unique<WorkerNode>(
          "w" + std::to_string(i), cfg_, std::move(worker_end)));
      workers_.back()->Start();
      master_.AttachWorker(std::move(master_end));
    }
  }

  ~BatchedServingTest() override {
    master_.StopServing();
    for (auto& w : workers_) w->Stop();
  }

  void DeploySameSliceEverywhere() {
    const auto range = fluid_.family().WorkerResident();
    master_.DeployLocal("slice", fluid_.ExtractSubnet(range));
    for (std::size_t i = 0; i < kWorkers; ++i) {
      ASSERT_TRUE(master_
                      .DeployToWorker("slice",
                                      ModelBlueprint::Standalone(
                                          cfg_, range.range.width()),
                                      nn::ExtractState(*slice_), 2000ms, i)
                      .ok());
    }
    Plan plan;
    plan.master_standalone = "slice";
    plan.worker_standalone = "slice";
    master_.SetPlan(plan);
    master_.SetMode(sim::Mode::kHighThroughput);
  }

  slim::FluidNetConfig cfg_;
  slim::FluidModel fluid_;
  MasterNode master_;
  std::vector<std::unique_ptr<WorkerNode>> workers_;
  std::unique_ptr<nn::Sequential> slice_;
  core::Rng rng_;
};

TEST_F(BatchedServingTest, CoalescedBatchMatchesSequentialInfersBitwise) {
  DeploySameSliceEverywhere();
  constexpr int kN = 6;
  std::vector<core::Tensor> inputs;
  for (int i = 0; i < kN; ++i) inputs.push_back(Sample(rng_));

  // Sequential ground truth: one blocking Infer per sample, scheduler off.
  std::vector<core::Tensor> sequential;
  for (const auto& x : inputs) {
    auto reply = master_.Infer(x, 2000ms);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    sequential.push_back(std::move(reply->logits));
  }

  // Async batched: all six submitted before the coalescing window closes,
  // served as fused batches sharded across the three devices.
  BatchOptions opts;
  opts.max_batch = kN;
  opts.max_delay = 100ms;
  master_.StartServing(opts);
  std::vector<std::future<core::StatusOr<InferReply>>> futures;
  for (const auto& x : inputs) {
    futures.push_back(master_.InferAsync(x.Clone(), 2000ms));
  }
  for (int i = 0; i < kN; ++i) {
    auto reply = futures[i].get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->logits.shape(), sequential[i].shape());
    EXPECT_EQ(core::MaxAbsDiff(reply->logits, sequential[i]), 0.0F)
        << "sample " << i << " diverged (served by " << reply->served_by
        << ")";
  }
  const auto stats = master_.stats();
  EXPECT_GE(stats.batches, 1);
  EXPECT_EQ(stats.coalesced_samples, kN);
  // At least one coalesced batch actually formed (not six singletons).
  EXPECT_LT(stats.batches, kN);
  const auto serving = master_.scheduler_stats();
  EXPECT_EQ(serving.submitted, kN);
  EXPECT_GT(serving.max_active_seen, 1);
}

TEST_F(BatchedServingTest, BatchedPipelineMatchesSequentialInfersBitwise) {
  // HA pipeline with chunked, windowed cut-activation shipping: the
  // coalesced batch must produce logits identical to one-at-a-time Infer.
  const auto& family = fluid_.family();
  master_.DeployLocal("lower50", fluid_.ExtractSubnet(family.MasterResident()));
  nn::Sequential combined = fluid_.ExtractSubnet(family.Combined());
  auto halves = train::SplitConvNet(cfg_, family.max_width(), combined, 2);
  master_.DeployLocal("front", std::move(halves.front));
  ASSERT_TRUE(master_
                  .DeployToWorker("back",
                                  ModelBlueprint::PipelineBack(
                                      cfg_, family.max_width(), 2),
                                  nn::ExtractState(halves.back), 2000ms, 0)
                  .ok());
  master_.SetPlan({"lower50", "", "front", "back", 0});
  master_.SetMode(sim::Mode::kHighAccuracy);

  constexpr int kN = 5;
  std::vector<core::Tensor> inputs;
  for (int i = 0; i < kN; ++i) inputs.push_back(Sample(rng_));
  std::vector<core::Tensor> sequential;
  for (const auto& x : inputs) {
    auto reply = master_.Infer(x, 2000ms);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->served_by, "pipeline:front+back@worker[0]");
    sequential.push_back(std::move(reply->logits));
  }

  BatchOptions opts;
  opts.max_batch = kN;
  opts.max_delay = 100ms;
  opts.ha_chunk = 2;   // force chunking: 5 samples -> frames of 2,2,1
  opts.ha_window = 2;  // two cut activations in flight on the link
  master_.StartServing(opts);
  std::vector<std::future<core::StatusOr<InferReply>>> futures;
  for (const auto& x : inputs) {
    futures.push_back(master_.InferAsync(x.Clone(), 2000ms));
  }
  for (int i = 0; i < kN; ++i) {
    auto reply = futures[i].get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->served_by, "pipeline:front+back@worker[0]");
    EXPECT_EQ(core::MaxAbsDiff(reply->logits, sequential[i]), 0.0F)
        << "sample " << i;
  }
  EXPECT_EQ(master_.stats().stale_replies, 0);
  EXPECT_GE(workers_[0]->samples_served(), kN);
}

TEST_F(BatchedServingTest, MixedPriorityChunkInterleavingIsBitwiseExact) {
  // Three multi-sample requests of different classes share the HA pipeline
  // window: two-row chunks interleave their rows on the wire, yet every
  // request's logits must be bitwise what a lone sequential Infer produces
  // — the fused forward is per-sample deterministic, so the schedule can
  // never show through in the numbers.
  const auto& family = fluid_.family();
  master_.DeployLocal("lower50", fluid_.ExtractSubnet(family.MasterResident()));
  nn::Sequential combined = fluid_.ExtractSubnet(family.Combined());
  auto halves = train::SplitConvNet(cfg_, family.max_width(), combined, 2);
  master_.DeployLocal("front", std::move(halves.front));
  ASSERT_TRUE(master_
                  .DeployToWorker("back",
                                  ModelBlueprint::PipelineBack(
                                      cfg_, family.max_width(), 2),
                                  nn::ExtractState(halves.back), 2000ms, 0)
                  .ok());
  master_.SetPlan({"lower50", "", "front", "back", 0});
  master_.SetMode(sim::Mode::kHighAccuracy);

  const std::int64_t sizes[3] = {3, 2, 4};
  const Priority classes[3] = {Priority::kLow, Priority::kHigh,
                               Priority::kNormal};
  std::vector<core::Tensor> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(Sample(rng_, sizes[i]));
  std::vector<core::Tensor> sequential;
  for (const auto& x : inputs) {
    auto reply = master_.Infer(x, 2000ms);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    sequential.push_back(std::move(reply->logits));
  }

  BatchOptions opts;
  opts.max_batch = 16;
  opts.max_delay = 50ms;
  opts.ha_chunk = 2;
  opts.ha_window = 2;
  master_.StartServing(opts);
  std::vector<std::future<core::StatusOr<InferReply>>> futures;
  for (int i = 0; i < 3; ++i) {
    SubmitOptions o;
    o.timeout = 2000ms;
    o.priority = classes[i];
    futures.push_back(master_.InferAsync(inputs[i].Clone(), o));
  }
  for (int i = 0; i < 3; ++i) {
    auto reply = futures[i].get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->served_by, "pipeline:front+back@worker[0]");
    EXPECT_EQ(core::MaxAbsDiff(reply->logits, sequential[i]), 0.0F)
        << "request " << i;
  }
  EXPECT_EQ(master_.stats().stale_replies, 0);
  const auto serving = master_.scheduler_stats();
  EXPECT_EQ(serving.class_submitted[0], 1);
  EXPECT_EQ(serving.class_submitted[1], 1);
  EXPECT_EQ(serving.class_submitted[2], 1);
  // Scheduled frames carried the v4 SLO block: the worker accounted every
  // async-path sample to its class (the 9 sequential warm-up samples rode
  // inline frames without one).
  EXPECT_GT(workers_[0]->slo_frames(), 0);
  EXPECT_EQ(workers_[0]->samples_served_class(0) +
                workers_[0]->samples_served_class(1) +
                workers_[0]->samples_served_class(2),
            9);
}

TEST(PipelineSloTest, ReadyRequestExpiresWhileThePipelineIsMidFlight) {
  // A scripted back half holds the in-flight chunk's reply hostage while a
  // short-deadline request waits READY behind it. At the next chunk
  // boundary the scheduler must expire the waiter (kDeadlineExceeded,
  // counted) and still deliver the held request — expiry is a scheduling
  // decision, not a pipeline failure.
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [master_end, worker_end] = MakeInMemoryPair();
  master.AttachWorker(std::move(master_end));

  std::atomic<bool> stop{false};
  std::atomic<bool> got_frame{false};
  std::atomic<bool> release{false};
  std::thread scripted([&, end = std::move(worker_end)]() mutable {
    std::vector<Message> held;
    while (!stop) {
      Message msg;
      const auto st = end->Recv(msg, 10ms);
      if (st.ok()) {
        if (msg.type == MsgType::kDeploy || msg.type == MsgType::kHeartbeat) {
          (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
        } else if (msg.type == MsgType::kInfer) {
          held.push_back(msg);
          got_frame = true;
        }
      }
      if (release && !held.empty()) {
        for (auto& m : held) {
          const std::int64_t rows = m.payload.shape()[0];
          (void)end->Send(Message::WithBatch(MsgType::kResult, m.seq, m.tag,
                                             core::Tensor({rows, 10})));
        }
        held.clear();
      }
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

  BatchOptions opts;
  opts.max_batch = 4;
  opts.max_delay = 0ms;
  opts.ha_chunk = 4;
  opts.ha_window = 1;
  master.StartServing(opts);

  core::Rng rng(31);
  auto held_req = master.InferAsync(Sample(rng, 2), 2000ms);
  for (int spin = 0; spin < 400 && !got_frame; ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(got_frame.load());
  auto doomed =
      master.InferAsync(Sample(rng), SubmitOptions{50ms, Priority::kHigh});
  std::this_thread::sleep_for(80ms);  // deadline passes mid-pipeline
  release = true;

  auto ra = held_req.get();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto rd = doomed.get();
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.status().code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(master.scheduler_stats().deadline_misses, 1);
  EXPECT_EQ(master.stats().failovers, 0);  // expiry is not a failover
  master.StopServing();
  stop = true;
  scripted.join();
}

TEST_F(BatchedServingTest, MultiClientStressSurvivesAWorkerCrashMidBatch) {
  DeploySameSliceEverywhere();
  BatchOptions opts;
  opts.max_batch = 8;
  opts.max_delay = 1ms;
  master_.StartServing(opts);

  constexpr int kClients = 8;
  constexpr int kPerClient = 24;
  const core::Tensor x = Sample(rng_);
  const core::Tensor want = slice_->Forward(x, false);

  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        auto reply = master_.InferAsync(x.Clone(), 5000ms).get();
        if (!reply.ok()) {
          ++failures;
          continue;
        }
        if (core::MaxAbsDiff(reply->logits, want) != 0.0F) ++mismatches;
      }
    });
  }
  // Kill a worker while the clients are mid-stream: every future must
  // still resolve, correctly, via failover.
  std::this_thread::sleep_for(30ms);
  workers_[0]->Crash();
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = master_.stats();
  EXPECT_EQ(stats.served_local + stats.served_remote,
            kClients * kPerClient);
  EXPECT_GT(stats.coalesced_samples, 0);
}

TEST_F(BatchedServingTest, ReattachWorkerRevivesADeadSlotWithItsDeployments) {
  DeploySameSliceEverywhere();
  workers_[0]->Crash();
  ASSERT_EQ(master_.ProbeWorkers(), kWorkers - 1);
  ASSERT_FALSE(master_.WorkerAlive(0));

  // A fresh process takes over the dead slot; the master replays the
  // slot's deploy history onto the new link.
  auto [master_end, worker_end] = MakeInMemoryPair();
  auto revived =
      std::make_unique<WorkerNode>("w0-revived", cfg_, std::move(worker_end));
  revived->Start();
  ASSERT_TRUE(master_.ReattachWorker(0, std::move(master_end)).ok());
  EXPECT_TRUE(master_.WorkerAlive(0));
  EXPECT_EQ(master_.stats().reattaches, 1);
  const auto names = revived->DeploymentNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "slice");

  // The revived slot serves again: drive enough singles through the
  // rotation that worker[0] must take one, bit-exactly.
  const core::Tensor x = Sample(rng_);
  const core::Tensor want = slice_->Forward(x, false);
  bool saw_revived = false;
  for (int i = 0; i < 6; ++i) {
    auto reply = master_.Infer(x, 2000ms);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(core::MaxAbsDiff(reply->logits, want), 0.0F);
    if (reply->served_by == "worker[0]:slice") saw_revived = true;
  }
  EXPECT_TRUE(saw_revived);
  workers_[0] = std::move(revived);  // keep it alive until teardown

  // Guard rails: bad index, live slot, null transport.
  EXPECT_EQ(master_.ReattachWorker(7, nullptr).code(),
            core::StatusCode::kInvalidArgument);
  auto [unused_a, unused_b] = MakeInMemoryPair();
  EXPECT_EQ(master_.ReattachWorker(1, std::move(unused_a)).code(),
            core::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Correlation-id hygiene against a scripted (misbehaving) worker.
// ---------------------------------------------------------------------------

TEST(SeqCorrelationTest, StaleRepliesAreDroppedAndLoggedNotMisdelivered) {
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [master_end, worker_end] = MakeInMemoryPair();
  master.AttachWorker(std::move(master_end));

  // Scripted worker: acks deploys; answers each infer with a stale RESULT
  // (bogus seq) first, then the real one.
  std::atomic<bool> stop{false};
  std::thread scripted([&, end = std::move(worker_end)]() mutable {
    while (!stop) {
      Message msg;
      if (!end->Recv(msg, 50ms).ok()) continue;
      if (msg.type == MsgType::kDeploy) {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
        continue;
      }
      if (msg.type == MsgType::kInfer) {
        const std::int64_t rows = msg.payload.shape()[0];
        (void)end->Send(Message::WithBatch(MsgType::kResult, msg.seq + 9999,
                                           msg.tag,
                                           core::Tensor({rows, 10})));
        (void)end->Send(Message::WithBatch(MsgType::kResult, msg.seq, msg.tag,
                                           core::Tensor({rows, 10})));
      }
    }
    end->Close();
  });

  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential upper = fluid.ExtractSubnet(fluid.family().WorkerResident());
  ASSERT_TRUE(master
                  .DeployToWorker("m", ModelBlueprint::Standalone(cfg, 8),
                                  nn::ExtractState(upper))
                  .ok());
  Plan plan;
  plan.worker_standalone = "m";
  master.SetPlan(plan);
  master.SetMode(sim::Mode::kHighThroughput);

  core::Rng rng(5);
  for (int i = 0; i < 3; ++i) {
    auto reply = master.Infer(Sample(rng), 2000ms);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->served_by, "worker[0]:m");
  }
  EXPECT_EQ(master.stats().stale_replies, 3);
  EXPECT_TRUE(master.WorkerAlive(0));
  stop = true;
  scripted.join();
}

TEST(SeqCorrelationTest, OutOfOrderWindowedRepliesAreBufferedPerSeq) {
  // Scripted pipeline back half that answers two in-flight cut frames in
  // REVERSE order: the master must park the early reply and deliver both
  // to their awaiters (no stale drops, no misdelivery).
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [master_end, worker_end] = MakeInMemoryPair();
  master.AttachWorker(std::move(master_end));

  std::atomic<bool> stop{false};
  std::thread scripted([&, end = std::move(worker_end)]() mutable {
    std::vector<Message> held;
    while (!stop) {
      Message msg;
      if (!end->Recv(msg, 50ms).ok()) continue;
      if (msg.type == MsgType::kDeploy) {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
        continue;
      }
      if (msg.type != MsgType::kInfer) continue;
      held.push_back(msg);
      if (held.size() == 2) {
        for (auto it = held.rbegin(); it != held.rend(); ++it) {
          const std::int64_t rows = it->payload.shape()[0];
          (void)end->Send(Message::WithBatch(MsgType::kResult, it->seq,
                                             it->tag,
                                             core::Tensor({rows, 10})));
        }
        held.clear();
      }
    }
    end->Close();
  });

  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential combined = fluid.ExtractSubnet(fluid.family().Combined());
  auto halves = train::SplitConvNet(cfg, fluid.family().max_width(), combined, 2);
  master.DeployLocal("front", std::move(halves.front));
  ASSERT_TRUE(master
                  .DeployToWorker("back",
                                  ModelBlueprint::PipelineBack(
                                      cfg, fluid.family().max_width(), 2),
                                  nn::ExtractState(halves.back))
                  .ok());
  master.SetPlan({"", "", "front", "back", 0});
  master.SetMode(sim::Mode::kHighAccuracy);

  BatchOptions opts;
  opts.max_batch = 4;
  opts.max_delay = 50ms;
  opts.ha_chunk = 2;   // 4 samples -> exactly two frames...
  opts.ha_window = 2;  // ...both in flight before the first await
  master.StartServing(opts);

  core::Rng rng(6);
  auto future = master.InferAsync(Sample(rng, 4), 2000ms);
  auto reply = future.get();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->logits.shape(), core::Shape({4, 10}));
  EXPECT_EQ(master.stats().stale_replies, 0);
  EXPECT_TRUE(master.WorkerAlive(0));
  master.StopServing();
  stop = true;
  scripted.join();
}

TEST(SeqCorrelationTest, AbandonedPipelineChunksAreDeregisteredNotLeaked) {
  // Back half errors chunk 0 while chunk 1 is still in flight: the
  // pipeline fails over, and chunk 1's seq must be DEREGISTERED — its
  // late reply gets the (bounded, counted) stale-drop, not a permanent
  // slot in the reply buffer — while the worker stays alive and
  // heartbeats keep working on the same link.
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [master_end, worker_end] = MakeInMemoryPair();
  master.AttachWorker(std::move(master_end));

  std::atomic<bool> stop{false};
  std::thread scripted([&, end = std::move(worker_end)]() mutable {
    std::vector<Message> held;
    while (!stop) {
      Message msg;
      if (!end->Recv(msg, 50ms).ok()) continue;
      if (msg.type == MsgType::kDeploy) {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
      } else if (msg.type == MsgType::kHeartbeat) {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
      } else if (msg.type == MsgType::kInfer) {
        held.push_back(msg);
        if (held.size() == 2) {
          (void)end->Send(Message::HeaderOnly(MsgType::kError, held[0].seq,
                                              "injected back-half failure"));
          const std::int64_t rows = held[1].payload.shape()[0];
          (void)end->Send(Message::WithBatch(MsgType::kResult, held[1].seq,
                                             held[1].tag,
                                             core::Tensor({rows, 10})));
          held.clear();
        }
      }
    }
    end->Close();
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

  BatchOptions opts;
  opts.max_batch = 4;
  opts.ha_chunk = 2;
  opts.ha_window = 2;
  master.StartServing(opts);

  core::Rng rng(8);
  auto reply = master.InferAsync(Sample(rng, 4), 2000ms).get();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->served_by, "master:lower50");  // failed over whole
  EXPECT_GE(master.stats().failovers, 1);

  // The link is still healthy: the heartbeat drains chunk 1's orphaned
  // reply as a stale drop on the way to its ack.
  EXPECT_EQ(master.ProbeWorkers(), 1u);
  EXPECT_TRUE(master.WorkerAlive(0));
  EXPECT_GE(master.stats().stale_replies, 1);
  master.StopServing();
  stop = true;
  scripted.join();
}

// ---------------------------------------------------------------------------
// Byzantine result payloads: shape dims come straight off the wire, so a
// reply with the right row count but wrong trailing dims must fail over —
// never scatter past the end of the batch's logits allocation.
// ---------------------------------------------------------------------------

TEST(ByzantineWorkerTest, OversizedShardResultFailsOverInsteadOfCorrupting) {
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [master_end, worker_end] = MakeInMemoryPair();
  master.AttachWorker(std::move(master_end));

  // Scripted worker: acks deploys, answers every infer with the right
  // number of rows but SEVEN extra classes per row.
  std::atomic<bool> stop{false};
  std::thread scripted([&, end = std::move(worker_end)]() mutable {
    while (!stop) {
      Message msg;
      if (!end->Recv(msg, 50ms).ok()) continue;
      if (msg.type == MsgType::kDeploy) {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
      } else if (msg.type == MsgType::kInfer) {
        const std::int64_t rows = msg.payload.shape()[0];
        (void)end->Send(Message::WithBatch(MsgType::kResult, msg.seq, msg.tag,
                                           core::Tensor({rows, 17})));
      }
    }
    end->Close();
  });

  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  master.DeployLocal("lower50",
                     fluid.ExtractSubnet(fluid.family().MasterResident()));
  nn::Sequential upper = fluid.ExtractSubnet(fluid.family().WorkerResident());
  ASSERT_TRUE(master
                  .DeployToWorker("m", ModelBlueprint::Standalone(cfg, 8),
                                  nn::ExtractState(upper))
                  .ok());
  Plan plan;
  plan.master_standalone = "lower50";
  plan.worker_standalone = "m";
  master.SetPlan(plan);
  master.SetMode(sim::Mode::kHighThroughput);

  // Two samples shard across {master, worker}: the local shard seeds the
  // [2, classes] allocation, the worker's oversized reply must be rejected
  // and its shard re-served locally, bit-exactly.
  core::Rng rng(11);
  nn::Sequential reference =
      fluid.ExtractSubnet(fluid.family().MasterResident());
  const core::Tensor x = Sample(rng, 2);
  const core::Tensor want = reference.Forward(x, false);
  auto reply = master.Infer(x, 2000ms);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->served_by, "master:lower50");
  ASSERT_EQ(reply->logits.shape(), want.shape());
  EXPECT_EQ(core::MaxAbsDiff(reply->logits, want), 0.0F);
  EXPECT_GE(master.stats().failovers, 1);
  stop = true;
  scripted.join();
}

TEST(ByzantineWorkerTest, HonestWorkerReservesTheShardABadPeerAnswered) {
  // No master-resident slice: result validation must be anchored to the
  // config's class count, so one byzantine peer fails only its own shard
  // (re-served by the honest worker) instead of poisoning the batch.
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [m0, w0] = MakeInMemoryPair();
  auto honest = std::make_unique<WorkerNode>("honest", cfg, std::move(w0));
  honest->Start();
  master.AttachWorker(std::move(m0));

  auto [m1, w1] = MakeInMemoryPair();
  master.AttachWorker(std::move(m1));
  std::atomic<bool> stop{false};
  std::thread scripted([&, end = std::move(w1)]() mutable {
    while (!stop) {
      Message msg;
      if (!end->Recv(msg, 50ms).ok()) continue;
      if (msg.type == MsgType::kDeploy) {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
      } else if (msg.type == MsgType::kInfer) {
        const std::int64_t rows = msg.payload.shape()[0];
        (void)end->Send(Message::WithBatch(MsgType::kResult, msg.seq, msg.tag,
                                           core::Tensor({rows, 17})));
      }
    }
    end->Close();
  });

  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential upper = fluid.ExtractSubnet(fluid.family().WorkerResident());
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(master
                    .DeployToWorker("m", ModelBlueprint::Standalone(cfg, 8),
                                    nn::ExtractState(upper), 2000ms, i)
                    .ok());
  }
  Plan plan;
  plan.worker_standalone = "m";
  master.SetPlan(plan);
  master.SetMode(sim::Mode::kHighThroughput);

  core::Rng rng(13);
  const core::Tensor x = Sample(rng, 2);
  const core::Tensor want = upper.Forward(x, false);
  auto reply = master.Infer(x, 2000ms);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->served_by, "worker[0]:m");
  ASSERT_EQ(reply->logits.shape(), want.shape());
  EXPECT_EQ(core::MaxAbsDiff(reply->logits, want), 0.0F);
  EXPECT_GE(master.stats().failovers, 1);
  honest->Stop();
  stop = true;
  scripted.join();
}

TEST(ByzantineWorkerTest, ZeroWindowAwaitDoesNotCondemnTheSecondWorker) {
  // Two silent workers (they ack control messages but never answer a
  // shard). Awaiting the first shard burns the whole batch deadline in a
  // real window — that worker is rightly condemned. The second shard is
  // then awaited with a ZERO window: it must fail over DeadlineExceeded
  // without marking a worker dead that never had a chance to answer.
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> silent;
  for (int i = 0; i < 2; ++i) {
    auto [m, w] = MakeInMemoryPair();
    master.AttachWorker(std::move(m));
    silent.emplace_back([&stop, end = std::move(w)]() mutable {
      while (!stop) {
        Message msg;
        if (!end->Recv(msg, 50ms).ok()) continue;
        if (msg.type == MsgType::kDeploy || msg.type == MsgType::kHeartbeat) {
          (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
        }
        // kInfer is swallowed: no shard is ever answered.
      }
      end->Close();
    });
  }

  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential upper = fluid.ExtractSubnet(fluid.family().WorkerResident());
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(master
                    .DeployToWorker("m", ModelBlueprint::Standalone(cfg, 8),
                                    nn::ExtractState(upper), 2000ms, i)
                    .ok());
  }
  Plan plan;
  plan.worker_standalone = "m";
  master.SetPlan(plan);
  master.SetMode(sim::Mode::kHighThroughput);

  core::Rng rng(23);
  auto reply = master.Infer(Sample(rng, 2), 150ms);
  ASSERT_FALSE(reply.ok());
  EXPECT_FALSE(master.WorkerAlive(0));  // in-window timeout: condemned
  EXPECT_TRUE(master.WorkerAlive(1));   // zero-window await: spared
  EXPECT_EQ(master.ProbeWorkers(), 1u);
  stop = true;
  for (auto& t : silent) t.join();
}

TEST(ByzantineWorkerTest, MisconfiguredLocalHeadAbandonsInFlightShards) {
  // A local model whose head disagrees with config num_classes fails the
  // batch in phase 2, AFTER phase 1 already shipped remote shards. Those
  // in-flight seqs must be deregistered: the worker's late reply has to
  // take the bounded stale-drop path, not sit in the reply buffer forever.
  slim::FluidNetConfig cfg;  // num_classes = 10
  MasterNode master(cfg);
  auto [m0, w0] = MakeInMemoryPair();
  auto worker = std::make_unique<WorkerNode>("w", cfg, std::move(w0));
  worker->Start();
  master.AttachWorker(std::move(m0));

  slim::FluidModel fluid = slim::FluidModel::PaperDefault(7);
  nn::Sequential upper = fluid.ExtractSubnet(fluid.family().WorkerResident());
  ASSERT_TRUE(master
                  .DeployToWorker("m", ModelBlueprint::Standalone(cfg, 8),
                                  nn::ExtractState(upper))
                  .ok());
  slim::FluidNetConfig weird_cfg;
  weird_cfg.num_classes = 7;  // deployment bug: 7-way head, config says 10
  core::Rng model_rng(21);
  master.DeployLocal("weird", train::BuildConvNet(weird_cfg, 8, model_rng));
  Plan plan;
  plan.master_standalone = "weird";
  plan.worker_standalone = "m";
  master.SetPlan(plan);
  master.SetMode(sim::Mode::kHighThroughput);

  core::Rng rng(22);
  auto reply = master.Infer(Sample(rng, 2), 2000ms);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), core::StatusCode::kInternal);

  // The link stays healthy, and the abandoned shard's reply is a counted
  // stale drop instead of a leak. The receive path drops it whenever it
  // lands: the worker serves control frames first, so when the heartbeat
  // reaches its queue before it picked up the shard, the ack overtakes
  // the shard's reply — allow that reply a bounded while to arrive.
  EXPECT_EQ(master.ProbeWorkers(), 1u);
  EXPECT_TRUE(master.WorkerAlive(0));
  const auto give_up = std::chrono::steady_clock::now() + 2s;
  while (master.stats().stale_replies < 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(master.stats().stale_replies, 1);
  EXPECT_TRUE(master.WorkerAlive(0));
  worker->Stop();
}

TEST(ByzantineWorkerTest, PipelineChunkClassMismatchFailsOverToResident) {
  slim::FluidNetConfig cfg;
  MasterNode master(cfg);
  auto [master_end, worker_end] = MakeInMemoryPair();
  master.AttachWorker(std::move(master_end));

  // Scripted back half: every chunk reply keeps the right row count but
  // grows two classes — only payload-size validation can catch it. The
  // first bad frame condemns the pipeline, and the already-shipped second
  // frame must be abandoned (not trusted) along with it.
  std::atomic<bool> stop{false};
  std::thread scripted([&, end = std::move(worker_end)]() mutable {
    while (!stop) {
      Message msg;
      if (!end->Recv(msg, 50ms).ok()) continue;
      if (msg.type == MsgType::kDeploy) {
        (void)end->Send(Message::HeaderOnly(MsgType::kAck, msg.seq));
      } else if (msg.type == MsgType::kInfer) {
        const std::int64_t rows = msg.payload.shape()[0];
        (void)end->Send(Message::WithBatch(MsgType::kResult, msg.seq, msg.tag,
                                           core::Tensor({rows, 12})));
      }
    }
    end->Close();
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

  BatchOptions opts;
  opts.max_batch = 4;
  opts.ha_chunk = 2;  // 4 samples -> two frames; the second one is bogus
  opts.ha_window = 2;
  master.StartServing(opts);

  core::Rng rng(12);
  nn::Sequential reference =
      fluid.ExtractSubnet(fluid.family().MasterResident());
  const core::Tensor x = Sample(rng, 4);
  const core::Tensor want = reference.Forward(x, false);
  auto reply = master.InferAsync(x.Clone(), 2000ms).get();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->served_by, "master:lower50");  // whole batch failed over
  ASSERT_EQ(reply->logits.shape(), want.shape());
  EXPECT_EQ(core::MaxAbsDiff(reply->logits, want), 0.0F);
  EXPECT_GE(master.stats().failovers, 1);
  master.StopServing();
  stop = true;
  scripted.join();
}

}  // namespace
}  // namespace fluid::dist
