#include "dist/master.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/buffer_pool.h"
#include "core/logging.h"
#include "core/tensor_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fluid::dist {

namespace {
using Clock = std::chrono::steady_clock;

/// Split a traced reply's observed round trip into pure link time: the
/// worker echoed the master's send stamp (so rtt computes on the master's
/// own clock) plus its service duration. Records the "wire" span under
/// the request frame's span and the per-class wire histogram. No-op for
/// untraced replies.
void RecordWireReply(const Message& reply, obs::Histogram* hist) {
  if (!reply.has_trace()) return;
  const std::int64_t rtt = obs::NowUs() - reply.trace_sent_us;
  const std::int64_t wire_us =
      std::max<std::int64_t>(0, rtt - reply.trace_service_us);
  auto& tracer = obs::Tracer::Global();
  tracer.Record(reply.trace_id, tracer.NewSpanId(), reply.trace_span, "wire",
                "master", reply.trace_sent_us, wire_us);
  if (hist != nullptr) hist->Record(static_cast<double>(wire_us) / 1000.0);
}

/// A structurally valid kResult for `rows` samples: payload present with a
/// batch dim of `rows`, and the v2 batch header (when set) agreeing. The
/// per-element size check against config num_classes happens at placement.
bool WellFormedResult(const Message& reply, std::int64_t rows) {
  return reply.type == MsgType::kResult && reply.has_payload() &&
         reply.payload.shape().rank() >= 2 &&
         reply.payload.shape()[0] == rows &&
         (reply.batch == 0 || reply.batch == rows);
}
}  // namespace

MasterNode::MasterNode(slim::FluidNetConfig config) : config_(config) {
  auto& reg = obs::MetricsRegistry::Global();
  for (std::size_t c = 0; c < kNumPriorityClasses; ++c) {
    const std::string label{PriorityName(static_cast<Priority>(c))};
    wire_ms_[c] = &reg.GetHistogram("fluid_wire_ms{class=\"" + label + "\"}");
  }
}

MasterNode::~MasterNode() {
  StopServing();
  // Close every link so its receive path's Recv returns, then join the
  // receive paths outside mu_ (each takes mu_ to file what it read).
  std::vector<std::thread> receivers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (WorkerHandle& handle : workers_) {
      handle.transport->Close();
      if (handle.receiver.joinable()) {
        receivers.push_back(std::move(handle.receiver));
      }
    }
  }
  for (std::thread& t : receivers) t.join();
}

std::size_t MasterNode::AttachWorker(TransportPtr transport) {
  FLUID_CHECK_MSG(transport != nullptr, "AttachWorker: null transport");
  std::lock_guard<std::mutex> lock(mu_);
  workers_.emplace_back();
  const std::size_t w = workers_.size() - 1;
  StartLinkLocked(w, std::move(transport));
  alive_count_.fetch_add(1, std::memory_order_relaxed);
  RefreshLabelsLocked();
  return w;
}

void MasterNode::StartLinkLocked(std::size_t w, TransportPtr transport) {
  WorkerHandle& handle = workers_[w];
  handle.transport = std::move(transport);
  ++handle.link_gen;
  handle.link_down = false;
  handle.link_error = core::Status::Ok();
  handle.name.clear();
  handle.pending.clear();
  for (auto& filed : handle.replies) RecycleMessage(std::move(filed.second));
  handle.replies.clear();
  handle.receiver = std::thread(&MasterNode::ReceiveLoop, this, w,
                                handle.transport.get(), handle.link_gen);
}

core::Status MasterNode::ReattachWorker(std::size_t index,
                                        TransportPtr transport,
                                        std::chrono::milliseconds timeout) {
  if (transport == nullptr) {
    return core::Status::InvalidArgument("ReattachWorker: null transport");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (index >= workers_.size()) {
    return core::Status::InvalidArgument("ReattachWorker: no worker " +
                                         std::to_string(index));
  }
  if (workers_[index].alive || workers_[index].replaying) {
    return core::Status::FailedPrecondition(
        "ReattachWorker: worker[" + std::to_string(index) +
        "] is still alive");
  }
  // Swap the fresh link in, then retire the dead one: close it so its
  // receive path returns, and join that thread outside mu_ (it takes mu_
  // to file what it read; seeing the new link generation, it files
  // nothing more). `replaying` keeps the slot out of routing until every
  // deployment is back.
  TransportPtr old_link = std::move(workers_[index].transport);
  std::thread old_receiver = std::move(workers_[index].receiver);
  StartLinkLocked(index, std::move(transport));
  workers_[index].replaying = true;
  lock.unlock();
  old_link->Close();
  if (old_receiver.joinable()) old_receiver.join();
  old_link.reset();
  lock.lock();

  // Replay the slot's deploy history so the fresh process serves exactly
  // what the dead one did. Any failure re-kills the slot: a half-deployed
  // worker must not rejoin routing. By index: the RPC waits release mu_.
  for (std::size_t i = 0; i < workers_[index].deployments.size(); ++i) {
    const std::string name = workers_[index].deployments[i].name;
    auto reply = RpcLocked(
        index,
        Message::HeaderOnly(MsgType::kDeploy, 0,
                            workers_[index].deployments[i].tag),
        timeout);
    core::Status st = reply.status();
    if (reply.ok() && reply->type != MsgType::kAck) {
      st = core::Status::Internal("ReattachWorker: redeploy '" + name +
                                  "' rejected: " + reply->tag);
    }
    if (!st.ok()) {
      MarkDeadLocked(index, st);  // no-op when the RPC already did
      return st;
    }
  }
  WorkerHandle& handle = workers_[index];
  handle.replaying = false;
  handle.alive = true;
  alive_count_.fetch_add(1, std::memory_order_relaxed);
  ++stats_.reattaches;
  FLUID_LOG(Info) << "master: worker[" << index << "] reattached ("
                  << handle.transport->Describe() << "), "
                  << handle.deployments.size() << " deployments replayed";
  return core::Status::Ok();
}

std::size_t MasterNode::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

std::size_t MasterNode::AliveWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& w : workers_) n += w.alive ? 1 : 0;
  return n;
}

bool MasterNode::WorkerAlive(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < workers_.size() && workers_[index].alive;
}

void MasterNode::EnableTraceWire(std::size_t index, bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < workers_.size()) workers_[index].trace_wire = on;
}

void MasterNode::DeployLocal(std::string name, nn::Sequential model) {
  nn::CompiledNet plan(std::move(model));
  std::lock_guard<std::mutex> lock(mu_);
  local_[std::move(name)] = std::move(plan);
}

core::Status MasterNode::DeployToWorker(const std::string& name,
                                        const ModelBlueprint& blueprint,
                                        const nn::StateDict& state,
                                        std::chrono::milliseconds timeout,
                                        std::size_t worker) {
  DeployRequest req;
  req.name = name;
  req.blueprint = blueprint;
  req.state = state;
  std::string tag = req.EncodeToTag();

  std::lock_guard<std::mutex> lock(mu_);
  if (worker >= workers_.size()) {
    return core::Status::InvalidArgument("DeployToWorker: no worker " +
                                         std::to_string(worker));
  }
  auto reply = RpcLocked(
      worker, Message::HeaderOnly(MsgType::kDeploy, 0, tag), timeout);
  if (!reply.ok()) return reply.status();
  if (reply->type == MsgType::kError) {
    return core::Status::Internal("DeployToWorker: worker rejected '" + name +
                                  "': " + reply->tag);
  }
  if (reply->type != MsgType::kAck) {
    return core::Status::Internal("DeployToWorker: unexpected reply " +
                                  std::string(MsgTypeName(reply->type)));
  }
  auto& deployments = workers_[worker].deployments;
  const auto it = std::find_if(
      deployments.begin(), deployments.end(),
      [&](const auto& d) { return d.name == name; });
  if (it != deployments.end()) {
    it->tag = std::move(tag);  // redeploy under the same name
    it->quant = blueprint.quant;
  } else {
    deployments.push_back({name, std::move(tag), blueprint.quant});
  }
  return core::Status::Ok();
}

void MasterNode::SetPlan(Plan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
  RefreshLabelsLocked();
}

void MasterNode::RefreshLabelsLocked() {
  label_local_ = "master:" + plan_.master_standalone;
  label_pipeline_ = "pipeline:" + plan_.pipeline_front + "+" +
                    plan_.pipeline_back + "@worker[" +
                    std::to_string(plan_.back_worker) + "]";
  label_worker_.resize(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    label_worker_[w] =
        "worker[" + std::to_string(w) + "]:" + plan_.worker_standalone;
  }
}

Plan MasterNode::plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

void MasterNode::SetMode(sim::Mode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  mode_ = mode;
}

sim::Mode MasterNode::mode() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mode_;
}

MasterStats MasterNode::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

LoadSnapshot MasterNode::ProbeLoad() const {
  LoadSnapshot snap;
  snap.alive_workers = alive_count_.load(std::memory_order_relaxed);
  std::shared_ptr<BatchScheduler> scheduler;
  {
    // serving_mu_ is the start/stop latch, never held while serving or
    // across Submit backpressure — this is NOT the serving-core lock
    // (mu_), which LoadSnapshot must never wait on.
    std::lock_guard<std::mutex> lock(serving_mu_);
    scheduler = scheduler_;
  }
  if (!scheduler) return snap;  // not serving: admission trivially open
  snap.serving = true;
  const SchedulerLoad load = scheduler->load();
  snap.admission_open = load.admission_open;
  snap.pool_occupancy = load.occupancy;
  snap.active_requests = load.active_requests;
  snap.queue_depth = load.queue_depth;
  snap.deadline_misses = load.deadline_misses;
  snap.completed = load.completed;
  snap.miss_rate = load.completed > 0
                       ? static_cast<double>(load.deadline_misses) /
                             static_cast<double>(load.completed)
                       : 0.0;
  return snap;
}

WireStats MasterNode::wire_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WireStats total;
  for (const WorkerHandle& handle : workers_) {
    total += handle.transport->wire_stats();
  }
  return total;
}

SchedulerStats MasterNode::scheduler_stats() const {
  std::lock_guard<std::mutex> lock(serving_mu_);
  return scheduler_ ? scheduler_->stats() : SchedulerStats{};
}

void MasterNode::StartServing(BatchOptions options) {
  std::lock_guard<std::mutex> lock(serving_mu_);
  StartServingLocked(options);
}

void MasterNode::StartServingLocked(BatchOptions options) {
  if (scheduler_) return;
  {
    std::lock_guard<std::mutex> inner(mu_);
    batch_options_ = options;
  }
  scheduler_ = std::make_shared<BatchScheduler>(
      options, [this](BatchScheduler& sched) { ServeActive(sched); });
}

void MasterNode::StopServing() {
  std::shared_ptr<BatchScheduler> scheduler;
  {
    std::lock_guard<std::mutex> lock(serving_mu_);
    scheduler = std::move(scheduler_);
  }
  if (scheduler) scheduler->Stop();
}

bool MasterNode::serving() const {
  std::lock_guard<std::mutex> lock(serving_mu_);
  return scheduler_ != nullptr;
}

std::future<core::StatusOr<InferReply>> MasterNode::InferAsync(
    core::Tensor input, std::chrono::milliseconds timeout) {
  SubmitOptions opts;
  opts.timeout = timeout;
  return InferAsync(std::move(input), opts);
}

std::future<core::StatusOr<InferReply>> MasterNode::InferAsync(
    core::Tensor input, const SubmitOptions& opts) {
  std::shared_ptr<BatchScheduler> scheduler;
  {
    std::lock_guard<std::mutex> lock(serving_mu_);
    StartServingLocked(BatchOptions{});
    scheduler = scheduler_;
  }
  // Submit outside serving_mu_: its backpressure wait may block for the
  // request's whole budget, and StopServing / scheduler_stats must not
  // stall behind it. A racing StopServing fails this request cleanly.
  return scheduler->Submit(std::move(input), opts);
}

core::StatusOr<InferReply> MasterNode::Infer(const core::Tensor& input,
                                             std::chrono::milliseconds timeout) {
  std::shared_ptr<BatchScheduler> scheduler;
  {
    std::lock_guard<std::mutex> lock(serving_mu_);
    scheduler = scheduler_;
  }
  if (scheduler) {
    return scheduler->Submit(core::AcquireTensorCopy(input), timeout).get();
  }

  // Scheduler off: serve inline as a batch of one request.
  const auto deadline = Clock::now() + timeout;
  std::lock_guard<std::mutex> lock(mu_);
  auto result = ServeBatchLocked(input, deadline);
  if (!result.ok()) return result.status();
  InferReply reply;
  reply.logits = std::move(result->logits);
  reply.served_by = result->served_by.empty()
                        ? std::string()
                        : *result->served_by.front().label;
  return reply;
}

void MasterNode::ServeActive(BatchScheduler& sched) {
  // Drain-thread entry: the pool has schedulable work. Pull chunks
  // continuously; the mode is re-checked at every chunk boundary, so an
  // orchestrator flip (or a pipeline death) re-routes the very next
  // quantum instead of waiting out a coalesced batch.
  for (;;) {
    bool ha = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ha = HaViableLocked();
    }
    if (ha) {
      if (!ServePipelineContinuous(sched)) return;  // pool drained
      continue;  // pipeline broke or mode changed: re-check the route
    }
    BatchScheduler::WorkChunk chunk;
    if (!sched.NextChunk(sched.options().max_batch,
                         std::chrono::milliseconds(1), chunk)) {
      return;
    }
    ServeChunkSharded(sched, chunk);
  }
}

bool MasterNode::ServePipelineContinuous(BatchScheduler& sched) {
  // Iteration-level HA serving: each ha_chunk cut-activation frame is one
  // scheduling quantum, so frames from *different* requests share the
  // ha_window in-flight window. The loop is launch / retire / wait: ship
  // every schedulable chunk the window has room for, let the receive path
  // retire replies in completion order (a good reply resolves its rows
  // there), fail condemned frames over, and block on one condition —
  // work plus window room, a retired or failed frame, or the earliest
  // in-flight deadline. A new arrival rides the next frame as soon as the
  // window has room; under a burst the window fills and frames grow up to
  // ha_chunk rows by themselves.
  const BatchOptions& opts = sched.options();
  const std::size_t window = std::max<std::size_t>(1, opts.ha_window);
  const std::size_t quantum = std::max<std::size_t>(1, opts.ha_chunk);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ha_.sched = &sched;
    ha_.window = window;
    ha_.broken = false;
  }
  // Condemned frames, taken out of the window to fail over here: the
  // sharded re-serve waits on the receive paths, so it must never run on
  // one.
  std::vector<Flight> failed;
  try {
    for (;;) {
      // Launch. With the window empty the grab may block briefly (the
      // max_delay straggler window); with frames in flight it never does.
      for (;;) {
        std::chrono::milliseconds wait{0};
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (ha_.broken || ha_.flights.size() >= window) break;
          if (ha_.flights.empty()) wait = std::chrono::milliseconds(1);
        }
        BatchScheduler::WorkChunk chunk;
        if (!sched.NextChunk(quantum, wait, chunk)) break;
        if (!LaunchFrame(chunk)) {
          // Not shippable (pipeline no longer viable, budget spent, send
          // failed): this chunk fails over alone, and the rest of the
          // window is not trusted either.
          ServeChunkSharded(sched, chunk);
          std::lock_guard<std::mutex> lock(mu_);
          BreakWindowLocked();
        }
      }

      // Retire: take condemned frames; a flight past its deadline had its
      // whole window to answer, so it condemns its worker (and with it
      // the window).
      bool broken = false;
      std::size_t inflight = 0;
      Clock::time_point earliest = Clock::time_point::max();
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto now = Clock::now();
        for (const Flight& fl : ha_.flights) {
          if (fl.chunk.deadline <= now) {
            MarkDeadLocked(fl.worker,
                           core::Status::DeadlineExceeded(
                               "master: worker[" + std::to_string(fl.worker) +
                               "] did not answer a pipeline frame in time"));
            // MarkDeadLocked broke the window — unless the worker was
            // already out of routing; never leave an expired frame behind.
            if (!ha_.flights.empty()) BreakWindowLocked();
            break;
          }
        }
        failed.swap(ha_.failed);
        broken = ha_.broken;
        inflight = ha_.flights.size();
        for (const Flight& fl : ha_.flights) {
          earliest = std::min(earliest, fl.chunk.deadline);
        }
      }
      for (Flight& fl : failed) ServeChunkSharded(sched, fl.chunk);
      failed.clear();
      if (broken || inflight == 0) {
        // A broken window is empty by now (BreakWindowLocked moved it
        // all to `failed`); an empty one means the pool drained.
        std::lock_guard<std::mutex> lock(mu_);
        ha_.sched = nullptr;
        return broken;
      }
      sched.AwaitEvent(inflight < window, earliest);
    }
  } catch (...) {
    // A throw (bad input shape) fails every in-service request in the
    // drain loop's handler. Reclaim the window first so no receive path
    // resolves rows of a request that is gone; late replies go stale.
    std::lock_guard<std::mutex> lock(mu_);
    for (const Flight& fl : ha_.flights) ForgetSeqLocked(fl.worker, fl.seq);
    ha_.flights.clear();
    ha_.failed.clear();
    ha_.sched = nullptr;
    throw;
  }
}

bool MasterNode::LaunchFrame(BatchScheduler::WorkChunk& chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ha_.broken || !HaViableLocked() ||
      RemainingMs(chunk.deadline).count() == 0) {
    return false;
  }
  const std::int64_t start_us = chunk.trace_id != 0 ? obs::NowUs() : 0;
  const std::size_t w = plan_.back_worker;
  core::Tensor storage;
  const core::Tensor* stacked = StackChunk(chunk, storage);
  core::Tensor cut = local_.at(plan_.pipeline_front).Forward(*stacked);
  if (!storage.empty()) core::RecycleTensor(std::move(storage));
  // The negotiated wire format of the back half: int8_wire ⇒ v3 frames.
  const Deployment* back_dep = FindDeploymentLocked(w, plan_.pipeline_back);
  const bool quant_cut = back_dep != nullptr && back_dep->quant.int8_wire;
  const std::int64_t seq = next_seq_++;
  Message frame;
  if (quant_cut) {
    frame = Message::WithQuantBatch(MsgType::kInfer, seq, plan_.pipeline_back,
                                    quant::QuantizeTensor(cut));
    core::RecycleTensor(std::move(cut));
    ++stats_.quant_cut_frames;
  } else {
    frame = Message::WithBatch(MsgType::kInfer, seq, plan_.pipeline_back,
                               std::move(cut));
  }
  // v4 SLO block: the frame advertises its most urgent member's class and
  // remaining budget for per-class accounting downstream.
  frame.SetSlo(static_cast<std::uint8_t>(chunk.top),
               RemainingMs(chunk.urgent_deadline).count());
  if (chunk.trace_id != 0) {
    // master.chunk covers stack, front forward, quantize and frame build;
    // it ends where the wire begins. The v6 stamp is taken right here, so
    // the reply's round trip holds only link time and worker service.
    auto& tracer = obs::Tracer::Global();
    const std::int64_t sent_us = obs::NowUs();
    tracer.Record(chunk.trace_id, tracer.NewSpanId(), chunk.trace_parent,
                  "master.chunk", "master", start_us, sent_us - start_us);
    if (workers_[w].trace_wire) {
      frame.SetTrace(chunk.trace_id, chunk.trace_parent, sent_us);
    }
  }
  workers_[w].pending.push_back(seq);
  const core::Status st = SendLocked(w, frame);
  RecycleMessage(std::move(frame));
  if (!st.ok()) {
    ForgetSeqLocked(w, seq);
    ++stats_.failovers;
    return false;
  }
  ++stats_.batches;
  stats_.coalesced_samples += chunk.rows;
  ha_.flights.push_back({seq, w, std::move(chunk)});
  return true;
}

void MasterNode::ServeChunkSharded(BatchScheduler& sched,
                                   const BatchScheduler::WorkChunk& chunk) {
  // One span per chunk serve (inert when untraced): covers stack, shard
  // fan-out, remote waits and scatter; shard wire spans parent under it.
  obs::ScopedSpan chunk_span(obs::Tracer::Global(), chunk.trace_id,
                             chunk.trace_parent, "master.chunk", "master");
  core::Tensor storage;
  core::Status st = core::Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const core::Tensor* stacked = StackChunk(chunk, storage);
    ++stats_.batches;
    stats_.coalesced_samples += chunk.rows;
    auto result =
        ServeShardedLocked(*stacked, chunk.deadline, &chunk, chunk_span.id());
    if (result.ok()) {
      // Scatter shard results to the chunk's slices under mu_: the
      // attribution labels point at the cached strings it guards. Each
      // slice reports the device that served its first row.
      const std::int64_t classes = config_.num_classes;
      const float* data = result->logits.data().data();
      std::int64_t row = 0;
      std::size_t range = 0;
      for (const auto& slice : chunk.slices) {
        while (range + 1 < result->served_by.size() &&
               result->served_by[range].row0 +
                       result->served_by[range].rows <=
                   row) {
          ++range;
        }
        sched.CompleteRows(slice, 0, slice.rows, data + row * classes,
                           classes, *result->served_by[range].label);
        row += slice.rows;
      }
      core::RecycleTensor(std::move(result->logits));
    } else {
      st = result.status();
    }
  }
  if (!storage.empty()) core::RecycleTensor(std::move(storage));
  if (!st.ok()) sched.FailChunk(chunk, st);
}

const core::Tensor* MasterNode::StackChunk(
    const BatchScheduler::WorkChunk& chunk, core::Tensor& storage) {
  FLUID_CHECK_MSG(!chunk.slices.empty(), "StackChunk: empty chunk");
  const BatchScheduler::Request& first = *chunk.slices.front().req;
  if (chunk.slices.size() == 1 &&
      chunk.slices.front().rows == first.samples) {
    // The chunk is exactly one whole request: serve its input in place.
    // The input is immutable and outlives the chunk (its rows are still
    // unresolved), so borrowing is copy-free and safe.
    return &first.input;
  }
  const std::int64_t stride = first.input.numel() / first.samples;
  std::vector<std::int64_t> dims(first.input.shape().dims().begin(),
                                 first.input.shape().dims().end());
  dims[0] = chunk.rows;
  storage = core::AcquireTensor(core::Shape(dims));
  float* dst = storage.data().data();
  for (const auto& slice : chunk.slices) {
    const BatchScheduler::Request& req = *slice.req;
    // Mixed per-sample shapes in one pool are a caller bug; the throw
    // fails the in-service requests (drain loop catch), not the thread.
    FLUID_CHECK_MSG(
        req.input.shape().rank() == first.input.shape().rank() &&
            req.input.numel() / req.samples == stride,
        "master: chunk mixes inputs of different per-sample shapes");
    const float* src = req.input.data().data() + slice.row0 * stride;
    std::copy(src, src + slice.rows * stride, dst);
    dst += slice.rows * stride;
  }
  return &storage;
}

core::StatusOr<MasterNode::BatchResult> MasterNode::ServeBatchLocked(
    const core::Tensor& input, Clock::time_point deadline) {
  // Scheduler-fed batches were validated at Submit, but the inline (no
  // scheduler) Infer path lands here directly; an empty batch dim would
  // divide by zero in the shard split.
  if (input.empty() || input.shape().rank() < 1 || input.shape()[0] < 1) {
    return core::Status::InvalidArgument(
        "master: Infer input needs a non-empty batch dim");
  }
  // HighAccuracy: the full-width pipeline, while its back worker lives.
  if (HaViableLocked()) {
    auto piped = ServePipelineBatchLocked(input, deadline);
    if (piped.ok()) return piped;
    // The back half is gone (or answered garbage): the whole batch fails
    // over to the standalone fan-out below.
    ++stats_.failovers;
    FLUID_LOG(Warn) << "master: pipeline failed ("
                    << piped.status().ToString()
                    << "), failing over to standalone";
  }
  return ServeShardedLocked(input, deadline);
}

bool MasterNode::HaViableLocked() const {
  return mode_ == sim::Mode::kHighAccuracy && !plan_.pipeline_front.empty() &&
         !plan_.pipeline_back.empty() && plan_.back_worker < workers_.size() &&
         workers_[plan_.back_worker].alive &&
         local_.count(plan_.pipeline_front) != 0;
}

core::StatusOr<MasterNode::BatchResult> MasterNode::ServePipelineBatchLocked(
    const core::Tensor& input, Clock::time_point deadline) {
  const std::size_t w = plan_.back_worker;
  if (RemainingMs(deadline).count() == 0) {
    // A pre-expired budget (the request sat out its timeout in the queue)
    // must not start an RPC that times out instantly and wrongly condemns
    // a healthy back worker; the standalone fallback may still serve.
    return core::Status::DeadlineExceeded(
        "master: batch deadline exhausted before the pipeline could ship");
  }
  nn::CompiledNet& front = local_.at(plan_.pipeline_front);
  const std::int64_t n = input.shape()[0];
  const std::int64_t chunk =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(batch_options_.ha_chunk));
  const std::size_t window = std::max<std::size_t>(1, batch_options_.ha_window);
  // The negotiated wire format of this deployment's cut frames: a back
  // half deployed with int8_wire ACKed a v2 blueprint, so it speaks wire
  // v3 and the cut activations cross the link as int8 (4× fewer bytes on
  // the serial link — the HA throughput lever). Everything else about the
  // pipeline (chunking, windowing, failover) is format-agnostic.
  const Deployment* back_dep = FindDeploymentLocked(w, plan_.pipeline_back);
  const bool quant_cut = back_dep != nullptr && back_dep->quant.int8_wire;

  struct InFlight {
    std::int64_t seq;
    std::int64_t row0;
    std::int64_t rows;
  };
  std::vector<InFlight> inflight;
  BatchResult out;
  // Pooled: every row is filled by a chunk reply (the `filled == n` CHECK
  // below guards it) before the tensor leaves this function.
  out.logits = core::AcquireTensor({n, config_.num_classes});
  std::int64_t filled = 0;

  // On any error exit, the seqs still in flight must not stay pending:
  // their replies would be parked in the reply buffer with no awaiter,
  // forever. Deregistering them routes late replies to the (bounded,
  // logged) stale-drop path instead.
  auto abandon_inflight = [&] {
    for (const InFlight& fl : inflight) ForgetSeqLocked(w, fl.seq);
    inflight.clear();
  };

  // Collect the oldest in-flight chunk's logits into `out`.
  auto await_oldest = [&]() -> core::Status {
    const InFlight fl = inflight.front();
    inflight.erase(inflight.begin());
    auto reply = AwaitReplyLocked(w, fl.seq, deadline);
    if (!reply.ok()) return reply.status();
    if (!WellFormedResult(*reply, fl.rows)) {
      return core::Status::Internal(
          "worker[" + std::to_string(w) + "]: " +
          (reply->type == MsgType::kError ? "back half failed: " + reply->tag
                                          : "malformed pipeline result"));
    }
    // Size the copy from the wire payload against the config's class
    // count, never the payload's own dims: a reply with the right row
    // count but different trailing dims (byzantine or buggy peer) must
    // fail over, not scribble past the end of out.logits.
    const std::int64_t classes = config_.num_classes;
    if (reply->payload.numel() != fl.rows * classes) {
      return core::Status::Internal(
          "worker[" + std::to_string(w) +
          "]: pipeline chunk result size mismatch");
    }
    const auto src = reply->payload.data();
    std::copy(src.begin(), src.end(),
              out.logits.data().begin() + fl.row0 * classes);
    filled += fl.rows;
    // The reply's logits are copied out; its storage feeds the next decode.
    RecycleMessage(std::move(*reply));
    return core::Status::Ok();
  };

  // Windowed send/recv queue: front compute of chunk k+1 overlaps the link
  // transfer and the worker's back compute of chunk k. Frames group into
  // half-window batches shipped through one SendBatch — one syscall and
  // one link transaction per group — while the in-flight cap stays
  // `window`: the link still sees at most `window` unacknowledged frames.
  const std::size_t group_max = std::max<std::size_t>(1, window / 2);
  std::vector<Message> group;
  std::vector<InFlight> group_fl;
  auto flush_group = [&]() -> core::Status {
    if (group.empty()) return core::Status::Ok();
    auto st = SendBatchLocked(
        w, std::span<const Message>(group.data(), group.size()));
    // The batch encoded straight out of the frames' payload storage; the
    // staging cycles back for the next group either way.
    for (Message& f : group) RecycleMessage(std::move(f));
    group.clear();
    if (!st.ok()) {
      // All-or-prefix: the whole group is suspect, none of it may be
      // awaited. Deregister before the caller abandons the older window.
      for (const InFlight& fl : group_fl) ForgetSeqLocked(w, fl.seq);
      group_fl.clear();
      return st;
    }
    inflight.insert(inflight.end(), group_fl.begin(), group_fl.end());
    group_fl.clear();
    return core::Status::Ok();
  };

  for (std::int64_t row0 = 0; row0 < n; row0 += chunk) {
    const std::int64_t rows = std::min(chunk, n - row0);
    core::Tensor cut =
        rows == n ? front.Forward(input)
                  : front.Forward(core::SliceAxis0(input, row0, rows));
    const std::int64_t seq = next_seq_++;
    workers_[w].pending.push_back(seq);
    Message frame;
    if (quant_cut) {
      frame = Message::WithQuantBatch(MsgType::kInfer, seq,
                                      plan_.pipeline_back,
                                      quant::QuantizeTensor(cut));
      // The fp32 cut staging is done with once quantized.
      core::RecycleTensor(std::move(cut));
      ++stats_.quant_cut_frames;
    } else {
      frame = Message::WithBatch(MsgType::kInfer, seq, plan_.pipeline_back,
                                 std::move(cut));
    }
    group.push_back(std::move(frame));
    group_fl.push_back({seq, row0, rows});
    if (group.size() >= group_max || row0 + rows >= n) {
      if (auto st = flush_group(); !st.ok()) {
        abandon_inflight();
        return st;
      }
    }
    while (inflight.size() >= window) {
      if (auto st2 = await_oldest(); !st2.ok()) {
        // Unsent group frames must not leave their seqs pending either.
        for (Message& f : group) RecycleMessage(std::move(f));
        for (const InFlight& fl : group_fl) ForgetSeqLocked(w, fl.seq);
        abandon_inflight();
        return st2;
      }
    }
  }
  while (!inflight.empty()) {
    if (auto st2 = await_oldest(); !st2.ok()) {
      abandon_inflight();
      return st2;
    }
  }
  FLUID_CHECK_MSG(filled == n, "pipeline batch: rows lost");

  out.served_by.push_back({0, n, &label_pipeline_});
  stats_.served_pipeline += n;
  return out;
}

core::StatusOr<MasterNode::BatchResult> MasterNode::ServeShardedLocked(
    const core::Tensor& input, Clock::time_point deadline,
    const BatchScheduler::WorkChunk* slo, std::uint64_t trace_parent) {
  const std::int64_t n = input.shape()[0];

  // HighThroughput fan-out (and the failover target for every other path):
  // shard the batch across the master's resident slice and every live
  // worker that hosts the worker-resident slice.
  struct Target {
    bool remote;
    std::size_t worker;
  };
  // Per-request bookkeeping reuses per-thread storage: the serve path runs
  // under mu_, but each client thread may drive it inline (scheduler off),
  // so thread_local rather than a member keeps it race-free for free.
  thread_local std::vector<Target> targets;
  targets.clear();
  // Resolved once: the awaits below release mu_, and a plan change
  // mid-batch must not send a failover shard to a different model.
  const auto local_it = plan_.master_standalone.empty()
                            ? local_.end()
                            : local_.find(plan_.master_standalone);
  const bool has_local = local_it != local_.end();
  if (has_local) targets.push_back({false, 0});
  if (!plan_.worker_standalone.empty()) {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (workers_[w].alive &&
          WorkerHasDeploymentLocked(w, plan_.worker_standalone)) {
        targets.push_back({true, w});
      }
    }
  }
  if (targets.empty()) {
    return core::Status::Unavailable(
        "master: no live deployment can serve (plan empty or every device "
        "dead)");
  }

  // Contiguous shards, one per target, rotated so a stream of small
  // batches still round-robins the fleet. Remote shards ship first so the
  // workers compute while the master serves its own shard.
  struct Shard {
    std::int64_t row0 = 0;
    std::int64_t rows = 0;
    Target target{false, 0};
    std::int64_t seq = 0;
    bool sent = false;
    bool done = false;
    core::Status error = core::Status::Ok();
  };
  const std::size_t start = round_robin_++;
  const std::size_t num_shards =
      std::min(targets.size(), static_cast<std::size_t>(n));
  thread_local std::vector<Shard> shards;
  shards.clear();
  shards.resize(num_shards);
  {
    const std::int64_t base = n / static_cast<std::int64_t>(num_shards);
    const std::int64_t rem = n % static_cast<std::int64_t>(num_shards);
    std::int64_t row = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      shards[s].row0 = row;
      shards[s].rows = base + (static_cast<std::int64_t>(s) < rem ? 1 : 0);
      shards[s].target = targets[(start + s) % targets.size()];
      row += shards[s].rows;
    }
  }
  // An owning copy for the wire (Message moves its payload); local
  // forwards below take `input` by const ref instead — no copy. Pooled:
  // the frame encode consumes it and recycles the storage.
  auto shard_input = [&](const Shard& shard) {
    return shard.rows == n ? core::AcquireTensorCopy(input)
                           : core::SliceAxis0(input, shard.row0, shard.rows);
  };
  auto local_forward = [&](const Shard& shard) {
    nn::CompiledNet& model = local_it->second;
    return shard.rows == n
               ? model.Forward(input)
               : model.Forward(core::SliceAxis0(input, shard.row0, shard.rows));
  };

  BatchResult out;
  out.served_by.reserve(num_shards);
  // Pooled: every shard either places its rows or the whole batch errors
  // out before `out` escapes, so no row is ever read unwritten.
  out.logits = core::AcquireTensor({n, config_.num_classes});
  // False when `logits` doesn't hold exactly shard.rows rows of the
  // config's class count — the caller must treat that as a malformed
  // result and fail the shard over. Copying unchecked would let a
  // byzantine reply with the right row count but larger trailing dims
  // write past the end of out.logits; sizing against the config (not the
  // first reply) keeps one bad peer from poisoning the whole batch's
  // validation. On success the shard's attribution range is recorded —
  // one range pointing at a cached label per shard: no string is built
  // anywhere on this path.
  auto place = [&](const Shard& shard, const core::Tensor& logits,
                   const std::string& served_by) -> bool {
    const std::int64_t classes = config_.num_classes;
    if (logits.numel() != shard.rows * classes) return false;
    const auto src = logits.data();
    std::copy(src.begin(), src.end(),
              out.logits.data().begin() + shard.row0 * classes);
    out.served_by.push_back({shard.row0, shard.rows, &served_by});
    return true;
  };

  // Phase 1: ship every remote shard (no waiting).
  for (auto& shard : shards) {
    if (!shard.target.remote) continue;
    const std::size_t w = shard.target.worker;
    if (!workers_[w].alive) {
      shard.error = core::Status::Unavailable(
          "worker[" + std::to_string(w) + "] died earlier this batch");
      continue;
    }
    if (RemainingMs(deadline).count() == 0) {
      // The caller's budget is spent: attempting an RPC now would time out
      // instantly and wrongly condemn a healthy worker.
      shard.error = core::Status::DeadlineExceeded(
          "master: Infer deadline exhausted before a remote could serve");
      continue;
    }
    shard.seq = next_seq_++;
    workers_[w].pending.push_back(shard.seq);
    // The negotiated wire format of this worker's input shards: a
    // deployment ACKed with int8_input_wire speaks wire v5, so the shard
    // quantizes per-frame (absmax) and crosses the link at 4× fewer
    // bytes — the HT fan-out's dominant wire cost. Workers without the
    // option keep receiving fp32 v2 frames, byte-identical to before.
    const Deployment* dep = FindDeploymentLocked(w, plan_.worker_standalone);
    Message frame;
    if (dep != nullptr && dep->quant.int8_input_wire) {
      quant::QuantizedTensor q;
      if (shard.rows == n) {
        q = quant::QuantizeTensor(input);  // whole batch: no staging copy
      } else {
        core::Tensor slice = core::SliceAxis0(input, shard.row0, shard.rows);
        q = quant::QuantizeTensor(slice);
        core::RecycleTensor(std::move(slice));
      }
      frame = Message::WithQuantInput(MsgType::kInfer, shard.seq,
                                      plan_.worker_standalone, std::move(q));
      ++stats_.quant_input_frames;
    } else {
      frame = Message::WithBatch(MsgType::kInfer, shard.seq,
                                 plan_.worker_standalone,
                                 shard_input(shard));
    }
    if (slo != nullptr) {
      // Serving a scheduler chunk: the frame carries the chunk's most
      // urgent class + remaining budget (wire v4) for per-class
      // accounting on the worker, and — on links negotiated for wire v6
      // — the trace block the worker echoes with its service duration.
      frame.SetSlo(static_cast<std::uint8_t>(slo->top),
                   RemainingMs(slo->urgent_deadline).count());
      if (slo->trace_id != 0 && workers_[w].trace_wire) {
        frame.SetTrace(slo->trace_id,
                       trace_parent != 0 ? trace_parent : slo->trace_parent,
                       obs::NowUs());
      }
    }
    auto st = SendLocked(w, frame);
    RecycleMessage(std::move(frame));
    if (!st.ok()) {
      shard.error = st;
      continue;
    }
    shard.sent = true;
  }

  // Erroring out of the batch before phase 3 has awaited the shards that
  // phase 1 shipped must deregister their seqs, or the replies would be
  // parked in the reply buffer with no awaiter, forever; deregistered,
  // late replies hit the bounded, logged stale-drop path instead.
  auto abandon_sent = [&] {
    for (const auto& shard : shards) {
      if (!shard.sent || shard.done) continue;
      ForgetSeqLocked(shard.target.worker, shard.seq);
    }
  };

  // Phase 2: the master's own shard(s) compute while workers run theirs.
  // A local mismatch means the deployed local model's head disagrees with
  // the config — a deployment bug, not something failover can mend.
  for (auto& shard : shards) {
    if (shard.target.remote) continue;
    core::Tensor logits = local_forward(shard);
    if (!place(shard, logits, label_local_)) {
      abandon_sent();
      return core::Status::Internal(
          "master: local logits disagree with config num_classes");
    }
    core::RecycleTensor(std::move(logits));
    stats_.served_local += shard.rows;
    shard.done = true;
  }

  // Phase 3: collect remote shard results.
  for (auto& shard : shards) {
    if (!shard.sent) continue;
    const std::size_t w = shard.target.worker;
    auto reply = AwaitReplyLocked(w, shard.seq, deadline);
    if (!reply.ok()) {
      shard.error = reply.status();
      continue;
    }
    if (!WellFormedResult(*reply, shard.rows)) {
      shard.error = core::Status::Internal(
          "worker[" + std::to_string(w) + "]" +
          (reply->type == MsgType::kError
               ? " failed '" + plan_.worker_standalone + "': " + reply->tag
               : ": malformed result"));
      continue;
    }
    if (!place(shard, reply->payload, label_worker_[w])) {
      shard.error = core::Status::Internal(
          "worker[" + std::to_string(w) + "]: result size mismatch");
      continue;
    }
    RecordWireReply(*reply, wire_ms_[static_cast<std::size_t>(
                                slo != nullptr ? slo->top : Priority::kNormal)]);
    RecycleMessage(std::move(*reply));
    stats_.served_remote += shard.rows;
    shard.done = true;
  }

  // Phase 4: failover — re-serve each failed shard whole, local slice
  // first, then the surviving workers (paper Fig. 1b: no request dropped).
  core::Status last = core::Status::Ok();
  for (auto& shard : shards) {
    if (shard.done) continue;
    ++stats_.failovers;
    last = shard.error;
    FLUID_LOG(Warn) << "master: shard [" << shard.row0 << ", "
                    << shard.row0 + shard.rows << ") failed ("
                    << shard.error.ToString() << "), re-serving";
    if (has_local) {
      core::Tensor logits = local_forward(shard);
      if (!place(shard, logits, label_local_)) {
        abandon_sent();  // no-op unless phase 3 was skipped
        return core::Status::Internal(
            "master: local logits disagree with config num_classes");
      }
      core::RecycleTensor(std::move(logits));
      stats_.served_local += shard.rows;
      shard.done = true;
      continue;
    }
    for (std::size_t w = 0; w < workers_.size() && !shard.done; ++w) {
      if (!workers_[w].alive ||
          !WorkerHasDeploymentLocked(w, plan_.worker_standalone)) {
        continue;
      }
      if (RemainingMs(deadline).count() == 0) {
        last = core::Status::DeadlineExceeded(
            "master: Infer deadline exhausted before a remote could serve");
        continue;
      }
      auto retried = ServeShardRemoteLocked(w, plan_.worker_standalone,
                                            shard_input(shard), deadline);
      if (!retried.ok()) {
        last = retried.status();
        continue;
      }
      if (!place(shard, *retried, label_worker_[w])) {
        last = core::Status::Internal(
            "worker[" + std::to_string(w) + "]: result size mismatch");
        continue;
      }
      core::RecycleTensor(std::move(*retried));
      stats_.served_remote += shard.rows;
      shard.done = true;
    }
    if (!shard.done) {
      return last.ok() ? core::Status::Unavailable(
                             "master: no live deployment could re-serve a "
                             "failed shard")
                       : last;
    }
  }
  // Ranges were recorded in completion order (local shards, then remote
  // replies, then failovers); the scatter walks them by row.
  std::sort(out.served_by.begin(), out.served_by.end(),
            [](const Attribution& a, const Attribution& b) {
              return a.row0 < b.row0;
            });
  return out;
}

core::StatusOr<core::Tensor> MasterNode::ServeShardRemoteLocked(
    std::size_t w, const std::string& name, core::Tensor shard,
    Clock::time_point deadline) {
  const std::int64_t rows = shard.shape()[0];
  auto reply = RpcLocked(
      w, Message::WithBatch(MsgType::kInfer, 0, name, std::move(shard)),
      RemainingMs(deadline));
  if (!reply.ok()) return reply.status();
  if (!WellFormedResult(*reply, rows)) {
    return core::Status::Internal(
        "worker[" + std::to_string(w) + "]" +
        (reply->type == MsgType::kError ? " failed '" + name + "': " + reply->tag
                                        : ": malformed result"));
  }
  return std::move(reply->payload);
}

bool MasterNode::WorkerHasDeploymentLocked(std::size_t w,
                                           const std::string& name) const {
  return FindDeploymentLocked(w, name) != nullptr;
}

const MasterNode::Deployment* MasterNode::FindDeploymentLocked(
    std::size_t w, const std::string& name) const {
  const auto& deployments = workers_[w].deployments;
  const auto it =
      std::find_if(deployments.begin(), deployments.end(),
                   [&](const auto& d) { return d.name == name; });
  return it != deployments.end() ? &*it : nullptr;
}

void MasterNode::MarkDeadLocked(std::size_t w, const core::Status& why) {
  WorkerHandle& handle = workers_[w];
  if (!handle.alive && !handle.replaying) return;
  if (handle.alive) alive_count_.fetch_sub(1, std::memory_order_relaxed);
  handle.alive = false;
  handle.replaying = false;
  handle.pending.clear();
  for (auto& filed : handle.replies) RecycleMessage(std::move(filed.second));
  handle.replies.clear();
  // Closing ends the receive path (its Recv fails); the thread is joined
  // by ReattachWorker or the destructor — never here, under mu_, which
  // the receive path takes to file a reply.
  handle.transport->Close();
  // HA frames on this link will never be answered: condemn the window.
  if (std::any_of(ha_.flights.begin(), ha_.flights.end(),
                  [w](const Flight& fl) { return fl.worker == w; })) {
    ++stats_.failovers;
    BreakWindowLocked();
  }
  reply_cv_.notify_all();
  FLUID_LOG(Warn) << "master: worker[" << w << "] ("
                  << handle.transport->Describe()
                  << ") marked dead: " << why.ToString();
}

void MasterNode::ReceiveLoop(std::size_t w, Transport* link,
                             std::uint64_t gen) {
  // Blocks in Recv until a frame arrives or the link closes; the timeout
  // only bounds one wait — an idle link simply waits again.
  constexpr auto kIdleWait = std::chrono::hours(1);
  for (;;) {
    Message reply;
    core::Status st = link->Recv(reply, kIdleWait);
    if (st.code() == core::StatusCode::kDeadlineExceeded) continue;
    bool parked = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      WorkerHandle& handle = workers_[w];
      if (handle.link_gen != gen) {
        // ReattachWorker swapped a new link in: this one is retired.
        RecycleMessage(std::move(reply));
        return;
      }
      if (st.ok()) {
        try {
          parked = FileReplyLocked(w, std::move(reply));
        } catch (const std::exception& e) {
          // Nothing in filing is expected to throw; if it does, this
          // link fails (below) rather than the whole process.
          st = core::Status::Internal(std::string("master: receive path: ") +
                                      e.what());
        }
      }
      if (!st.ok()) {
        // Peer death or stream corruption. Anyone awaiting this link
        // would conclude the same, so with answers outstanding the worker
        // is condemned now; an idle link is found dead by its next use.
        handle.link_down = true;
        handle.link_error = st;
        if (!handle.pending.empty()) MarkDeadLocked(w, st);
        reply_cv_.notify_all();
        return;
      }
    }
    // Notified unlocked, so the awaiter wakes to a free mu_.
    if (parked) reply_cv_.notify_all();
  }
}

bool MasterNode::FileReplyLocked(std::size_t w, Message&& reply) {
  WorkerHandle& handle = workers_[w];
  if (reply.type == MsgType::kHello) {
    handle.name = reply.tag;
    return false;
  }
  if (std::find(handle.pending.begin(), handle.pending.end(), reply.seq) ==
      handle.pending.end()) {
    // Correlation id matches nothing in flight (or an RPC long
    // abandoned): drop it loudly rather than mis-deliver.
    ++stats_.stale_replies;
    FLUID_LOG(Warn)
            .With("event", "stale_reply")
            .With("worker", w)
            .With("seq", reply.seq)
            .With("type", MsgTypeName(reply.type))
        << "master: dropping stale reply";
    RecycleMessage(std::move(reply));
    return false;
  }
  for (std::size_t i = 0; i < ha_.flights.size(); ++i) {
    if (ha_.flights[i].seq == reply.seq) {
      RetireFlightLocked(i, std::move(reply));
      return false;
    }
  }
  const std::int64_t seq = reply.seq;
  handle.replies.emplace_back(seq, std::move(reply));
  return true;
}

void MasterNode::RetireFlightLocked(std::size_t index, Message&& reply) {
  Flight& fl = ha_.flights[index];
  const std::size_t w = fl.worker;
  ForgetSeqLocked(w, fl.seq);
  // Size against the config's class count, never the payload's own dims:
  // a byzantine reply with the right row count but different trailing
  // dims must fail over, not scribble past the request's logits.
  if (!WellFormedResult(reply, fl.chunk.rows) ||
      reply.payload.numel() != fl.chunk.rows * config_.num_classes) {
    ++stats_.failovers;
    FLUID_LOG(Warn) << "master: pipeline chunk failed (worker[" << w << "]: "
                    << (reply.type == MsgType::kError
                            ? "back half failed: " + reply.tag
                            : std::string("malformed pipeline chunk result"))
                    << "), failing over to standalone";
    RecycleMessage(std::move(reply));
    // Frame-granular failover: the back half is suspect, so the rest of
    // the window is not trusted either — rows never ride a reply from a
    // peer that already misbehaved.
    BreakWindowLocked();
    return;
  }
  stats_.served_pipeline += fl.chunk.rows;
  RecordWireReply(reply, wire_ms_[static_cast<std::size_t>(fl.chunk.top)]);
  // Resolve under mu_: the cached pipeline label is guarded by it, and
  // the scheduler lock only ever nests inside mu_.
  ha_.sched->CompleteChunk(fl.chunk, reply.payload, label_pipeline_);
  RecycleMessage(std::move(reply));
  // The drain thread needs this retirement only when the window was full
  // (room to launch) or is now empty (nothing left to wait for — a
  // stopping scheduler waits for exactly that); otherwise it is already
  // waiting for work and the earliest deadline, so skip the wakeup.
  const bool was_full = ha_.flights.size() >= ha_.window;
  ha_.flights.erase(ha_.flights.begin() +
                    static_cast<std::ptrdiff_t>(index));
  if (was_full || ha_.flights.empty()) ha_.sched->Wake();
}

void MasterNode::BreakWindowLocked() {
  for (Flight& fl : ha_.flights) {
    ForgetSeqLocked(fl.worker, fl.seq);
    ha_.failed.push_back(std::move(fl));
  }
  ha_.flights.clear();
  ha_.broken = true;
  if (ha_.sched != nullptr) ha_.sched->Wake();
}

void MasterNode::ForgetSeqLocked(std::size_t w, std::int64_t seq) {
  WorkerHandle& handle = workers_[w];
  std::erase(handle.pending, seq);
  const auto it =
      std::find_if(handle.replies.begin(), handle.replies.end(),
                   [seq](const auto& filed) { return filed.first == seq; });
  if (it != handle.replies.end()) {
    RecycleMessage(std::move(it->second));
    handle.replies.erase(it);
  }
}

core::Status MasterNode::SendLocked(std::size_t w, const Message& msg) {
  auto st = workers_[w].transport->Send(msg);
  if (!st.ok()) MarkDeadLocked(w, st);
  return st;
}

core::Status MasterNode::SendBatchLocked(std::size_t w,
                                         std::span<const Message> msgs) {
  auto st = workers_[w].transport->SendBatch(msgs);
  if (!st.ok()) MarkDeadLocked(w, st);
  return st;
}

core::StatusOr<Message> MasterNode::RpcLocked(std::size_t w, Message msg,
                                              std::chrono::milliseconds timeout) {
  auto& handle = workers_[w];
  if (!handle.alive && !handle.replaying) {
    return core::Status::Unavailable("worker[" + std::to_string(w) + "] dead");
  }
  const auto deadline = Clock::now() + timeout;
  const std::int64_t seq = next_seq_++;
  msg.seq = seq;
  handle.pending.push_back(seq);
  auto st = handle.transport->Send(msg);
  // The frame is on the wire; its bulk payloads (e.g. a failover shard's
  // activations) cycle back to the pool before the reply wait.
  RecycleMessage(std::move(msg));
  if (!st.ok()) {
    MarkDeadLocked(w, st);
    return st;
  }
  return AwaitReplyLocked(w, seq, deadline);
}

core::StatusOr<Message> MasterNode::AwaitReplyLocked(
    std::size_t w, std::int64_t seq, Clock::time_point deadline) {
  // A wait whose budget was spent before it began (an earlier shard
  // consumed the shared batch deadline) fails the shard over without
  // condemning a worker that never had a chance to answer.
  const bool zero_window = RemainingMs(deadline).count() == 0;
  const std::uint64_t gen = workers_[w].link_gen;
  for (;;) {
    // Re-read every pass: mu_ is released while waiting.
    WorkerHandle& handle = workers_[w];
    if (handle.link_gen != gen || (!handle.alive && !handle.replaying)) {
      return core::Status::Unavailable("worker[" + std::to_string(w) +
                                       "] dead");
    }
    const auto it =
        std::find_if(handle.replies.begin(), handle.replies.end(),
                     [seq](const auto& filed) { return filed.first == seq; });
    if (it != handle.replies.end()) {
      Message reply = std::move(it->second);
      handle.replies.erase(it);
      std::erase(handle.pending, seq);
      return reply;
    }
    if (handle.link_down) {
      const core::Status st = handle.link_error;
      MarkDeadLocked(w, st);
      return st;
    }
    if (Clock::now() >= deadline) {
      if (zero_window) {
        // Deregistering the seq routes its late reply to the counted
        // stale-drop path.
        ForgetSeqLocked(w, seq);
        return core::Status::DeadlineExceeded(
            "master: deadline exhausted before worker[" + std::to_string(w) +
            "]'s reply could be awaited");
      }
      // An in-window timeout means this worker cannot be trusted to
      // answer: fail over rather than wait.
      const auto st = core::Status::DeadlineExceeded(
          "master: worker[" + std::to_string(w) +
          "] did not answer within the deadline");
      MarkDeadLocked(w, st);
      return st;
    }
    reply_cv_.wait_until(mu_, deadline);
  }
}

std::size_t MasterNode::ProbeWorkers(std::chrono::milliseconds timeout) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t alive = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!workers_[w].alive) continue;
    auto reply =
        RpcLocked(w, Message::HeaderOnly(MsgType::kHeartbeat, 0), timeout);
    if (!reply.ok()) continue;  // RpcLocked already marked it dead
    if (reply->type != MsgType::kAck) {
      MarkDeadLocked(w, core::Status::Internal(
                            "heartbeat answered with " +
                            std::string(MsgTypeName(reply->type))));
      continue;
    }
    ++alive;
  }
  return alive;
}

}  // namespace fluid::dist
