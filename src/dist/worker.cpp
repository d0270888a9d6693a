#include "dist/worker.h"

#include "core/logging.h"
#include "obs/trace.h"
#include "quant/quant_layers.h"

namespace fluid::dist {

namespace {
// Short poll so Stop()/Crash() are honoured promptly even on an idle link.
constexpr std::chrono::milliseconds kPollInterval{50};

// Bound on frames held for priority selection: past this the loop serves
// before draining further (the link's own flow control backs up instead).
constexpr std::size_t kMaxQueuedFrames = 256;

// One frame awaiting service, with its scheduling key decoded once.
struct PendingFrame {
  Message msg;
  std::chrono::steady_clock::time_point deadline;
  std::uint64_t arrival = 0;  // monotone admission index (FIFO tiebreak)
  std::uint8_t cls = 1;       // priority class (kNormal when unclassified)
  bool control = false;       // non-kInfer frames: deploy/heartbeat/hello
};

PendingFrame ClassifyFrame(Message msg, std::uint64_t arrival) {
  PendingFrame f;
  f.arrival = arrival;
  f.control = msg.type != MsgType::kInfer;
  if (!f.control && msg.has_slo() && msg.priority < 3) {
    f.cls = msg.priority;
    f.deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(msg.slo_ms);
  } else {
    // Unclassified work serves as kNormal; the deadline is set far enough
    // out that EDF degrades to arrival order among such frames.
    f.cls = 1;
    f.deadline =
        std::chrono::steady_clock::now() + std::chrono::hours(24);
  }
  f.msg = std::move(msg);
  return f;
}

// Strict-class-then-EDF, mirroring BatchScheduler's chunk-assembly order:
// control first (arrival order), then lower class value, then earlier
// deadline, then arrival.
bool FrameBefore(const PendingFrame& a, const PendingFrame& b) {
  if (a.control != b.control) return a.control;
  if (a.control) return a.arrival < b.arrival;
  if (a.cls != b.cls) return a.cls < b.cls;
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.arrival < b.arrival;
}
}  // namespace

WorkerNode::WorkerNode(std::string name, slim::FluidNetConfig config,
                       TransportPtr transport)
    : name_(std::move(name)), config_(config), transport_(std::move(transport)) {
  FLUID_CHECK_MSG(transport_ != nullptr, "WorkerNode: null transport");
}

WorkerNode::~WorkerNode() { Stop(); }

void WorkerNode::Start() {
  if (running_) return;
  stop_ = false;
  running_ = true;
  // Best-effort announcement; the master learns the name when it drains.
  (void)transport_->Send(Message::HeaderOnly(MsgType::kHello, 0, name_));
  thread_ = std::thread(&WorkerNode::ServeLoop, this);
}

void WorkerNode::Stop() {
  stop_ = true;
  transport_->Close();
  if (thread_.joinable()) thread_.join();
  running_ = false;
}

void WorkerNode::Crash() {
  if (crashed_) return;
  crashed_ = true;
  FLUID_LOG(Info) << "worker '" << name_ << "': simulated power failure";
  Stop();
}

void WorkerNode::ServeLoop() {
  std::vector<PendingFrame> queue;
  std::uint64_t arrivals = 0;
  bool link_down = false;
  while (!stop_ && !link_down) {
    // Drain: block (briefly) only when nothing is queued; with work in
    // hand, sweep whatever has already arrived without waiting so the
    // priority pick below sees the whole backlog, not just frame one.
    while (queue.size() < kMaxQueuedFrames) {
      Message msg;
      const auto timeout =
          queue.empty() ? kPollInterval : std::chrono::milliseconds(0);
      const auto st = transport_->Recv(msg, timeout);
      if (st.code() == core::StatusCode::kDeadlineExceeded) break;
      if (!st.ok()) {
        // Peer gone (kUnavailable) or stream corrupt (kDataLoss, transport
        // already closed itself). Either way this connection is done — note
        // it and retire; decode errors never unwind the loop. Anything
        // still queued is undeliverable (no link to reply on): the master
        // fails those RPCs and re-serves the rows elsewhere.
        if (!stop_) {
          FLUID_LOG(Warn) << "worker '" << name_
                          << "': link down: " << st.ToString();
        }
        link_down = true;
        break;
      }
      queue.push_back(ClassifyFrame(std::move(msg), arrivals++));
    }
    if (queue.empty() || link_down) continue;

    // Pick: strict class, then EDF, then arrival (see FrameBefore). The
    // queue is small and short-lived — linear scan, no heap.
    std::size_t best = 0;
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (FrameBefore(queue[i], queue[best])) best = i;
      if (queue[i].arrival < queue[oldest].arrival) oldest = i;
    }
    if (best != oldest) ++priority_reorders_;
    PendingFrame frame = std::move(queue[best]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));

    Message reply = Handle(frame.msg);
    // Recycle the request's remaining bulk storage (handlers move what
    // they consume) and, after the frame is on the wire, the reply's —
    // the next decode/forward on this connection reuses it.
    RecycleMessage(std::move(frame.msg));
    const auto send_st = transport_->Send(reply);
    RecycleMessage(std::move(reply));
    if (!send_st.ok()) break;
  }
  running_ = false;
}

Message WorkerNode::Handle(Message& msg) {
  switch (msg.type) {
    case MsgType::kDeploy:
      return HandleDeploy(msg);
    case MsgType::kInfer:
      return HandleInfer(msg);
    case MsgType::kHeartbeat:
      return Message::HeaderOnly(MsgType::kAck, msg.seq);
    case MsgType::kHello:
      return Message::HeaderOnly(MsgType::kAck, msg.seq);
    default:
      return Message::HeaderOnly(MsgType::kError, msg.seq,
                                 "unexpected frame " +
                                     std::string(MsgTypeName(msg.type)));
  }
}

Message WorkerNode::HandleDeploy(const Message& msg) {
  DeployRequest req;
  const auto st = DeployRequest::DecodeFromTag(msg.tag, req);
  if (!st.ok()) {
    return Message::HeaderOnly(MsgType::kError, msg.seq,
                               "deploy decode: " + st.ToString());
  }
  try {
    nn::Sequential model = req.blueprint.Build();
    const auto load = nn::LoadState(model, req.state, /*allow_partial=*/false);
    if (!load.ok()) {
      return Message::HeaderOnly(MsgType::kError, msg.seq,
                                 "deploy load: " + load.ToString());
    }
    // Weights always ship fp32 (the StateDict format); an int8_compute
    // deploy quantizes them *here*, per output channel, so the wire
    // payload stays checkpoint-compatible and the worker owns its own
    // quantization error.
    if (req.blueprint.quant.int8_compute) {
      model = quant::QuantizeModel(model);
    }
    // Every forward this deployment serves runs the compiled plan; a
    // reattach replays the deploy, so a fresh worker compiles too.
    nn::CompiledNet plan(std::move(model));
    {
      std::lock_guard<std::mutex> lock(mu_);
      deployments_[req.name] = std::move(plan);
    }
    FLUID_LOG(Info) << "worker '" << name_ << "': deployed '" << req.name
                    << (req.blueprint.quant.int8_compute ? "' (int8)" : "'");
    return Message::HeaderOnly(MsgType::kAck, msg.seq);
  } catch (const std::exception& e) {
    // A hostile/buggy blueprint must not take the serving loop down —
    // including std::bad_alloc/std::length_error from absurd dimensions,
    // not just the library's own core::Error.
    return Message::HeaderOnly(MsgType::kError, msg.seq,
                               std::string("deploy build: ") + e.what());
  }
}

Message WorkerNode::HandleInfer(Message& msg) {
  // Traced frame (wire v6): clock the service so the reply can echo the
  // block with the duration filled in. Untraced frames read no clocks.
  const std::int64_t svc_start = msg.has_trace() ? obs::NowUs() : 0;
  if (!msg.has_payload() && !msg.has_qpayload()) {
    return Message::HeaderOnly(MsgType::kError, msg.seq, "infer: no payload");
  }
  // A v3 frame carries the activations quantized: reconstruct the fp32
  // tensor at the cut (scale · q) and serve it like any other frame.
  // Replies stay fp32 v2 — logits are a few dozen bytes, the cut tensor
  // was the wire cost worth quantizing.
  const bool quantized = msg.has_qpayload();
  core::Tensor input;
  if (quantized) {
    if (msg.has_payload()) {
      return Message::HeaderOnly(MsgType::kError, msg.seq,
                                 "infer: frame carries fp32 AND int8 payloads");
    }
    input = quant::DequantizeTensor(msg.qpayload);
    ++quant_frames_;
    // v5 marks the quantized payload as an *input shard* (HT fan-out's
    // int8_input_wire negotiation) rather than cut activations; decode is
    // identical, only the accounting differs.
    if (msg.input_quant) ++input_quant_frames_;
  } else {
    // Take the decoded tensor: the forward pass consumes it and its
    // (pooled) storage is recycled by the first layer.
    input = std::move(msg.payload);
  }
  // Batch-aware frames: when the master declares how many samples the
  // shard covers, a disagreeing payload is a framing bug — reject it
  // before the model can mis-scatter results across requests.
  const std::int64_t samples =
      input.shape().rank() >= 1 ? input.shape()[0] : 1;
  if (msg.batch != 0 && msg.batch != samples) {
    return Message::HeaderOnly(
        MsgType::kError, msg.seq,
        "infer: batch header says " + std::to_string(msg.batch) +
            " samples but payload carries " + std::to_string(samples));
  }
  // The whole coalesced batch runs through one fused forward — this is
  // where the conv layers' batched [Cout, batch·area] GEMM earns its keep.
  auto logits = LocalInfer(msg.tag, std::move(input));
  if (!logits.ok()) {
    return Message::HeaderOnly(MsgType::kError, msg.seq,
                               logits.status().ToString());
  }
  ++served_;
  samples_served_ += samples;
  // v4 SLO block: per-class accounting. The class is the frame's most
  // urgent member's (chunks mix classes; the header carries the top).
  if (msg.has_slo() && msg.priority < 3) {
    ++slo_frames_;
    samples_by_class_[msg.priority] += samples;
  }
  Message reply = Message::WithBatch(MsgType::kResult, msg.seq, msg.tag,
                                     std::move(*logits));
  if (msg.has_trace()) {
    ++trace_frames_;
    const std::int64_t svc_us = obs::NowUs() - svc_start;
    // The span lands in *this* process's ring under the master's trace
    // id; the echoed block carries the duration back for the wire split.
    auto& tracer = obs::Tracer::Global();
    tracer.Record(msg.trace_id, tracer.NewSpanId(), msg.trace_span,
                  "worker.service", name_, svc_start, svc_us);
    reply.EchoTrace(msg, svc_us);
  }
  return reply;
}

core::StatusOr<core::Tensor> WorkerNode::LocalInfer(const std::string& model,
                                                    const core::Tensor& input) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(model);
  if (it == deployments_.end()) {
    return core::Status::NotFound("worker '" + name_ + "' has no model '" +
                                  model + "'");
  }
  try {
    return it->second.Forward(input);
  } catch (const std::exception& e) {
    return core::Status::InvalidArgument("worker '" + name_ + "' infer '" +
                                         model + "': " + e.what());
  }
}

core::StatusOr<core::Tensor> WorkerNode::LocalInfer(const std::string& model,
                                                    core::Tensor&& input) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(model);
  if (it == deployments_.end()) {
    return core::Status::NotFound("worker '" + name_ + "' has no model '" +
                                  model + "'");
  }
  try {
    // Same plan as the const-ref path, just consuming the input so every
    // intermediate cycles the pool.
    return it->second.Forward(std::move(input));
  } catch (const std::exception& e) {
    return core::Status::InvalidArgument("worker '" + name_ + "' infer '" +
                                         model + "': " + e.what());
  }
}

std::vector<std::string> WorkerNode::DeploymentNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(deployments_.size());
  for (const auto& [name, model] : deployments_) names.push_back(name);
  return names;
}

}  // namespace fluid::dist
