#pragma once
// WorkerNode: an edge device serving deployed sub-networks.
//
// A worker owns nothing but what the master ships it: each kDeploy frame
// carries a blueprint (architecture) plus a weight dict, which the worker
// instantiates and serves by name. Because the deployed weights live on
// the worker, they keep serving after the master dies — that ownership is
// exactly the paper's Fig. 1(c) argument for the Fluid upper slice, and
// LocalInfer is the surviving entry point.
//
// The serving loop runs on one background thread. It is not FIFO: frames
// already queued on the link are drained and served strict-class-then-EDF
// from their v4 SLO blocks — the same order the master's BatchScheduler
// assembles chunks in — so an urgent frame that lands behind a burst of
// low-class ones does not wait out the burst on the device. Control
// frames (deploy, heartbeat) always go first, in arrival order; frames
// without an SLO block serve as kNormal with no meaningful deadline. The
// master correlates replies by seq and parks out-of-order ones, so this
// reordering is invisible to the RPC layer. Stop() is a graceful
// shutdown; Crash() simulates a power failure (the transport drops with no
// goodbye), which is what the failover benches use to kill a device
// mid-stream.

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "dist/blueprint.h"
#include "dist/transport.h"
#include "nn/compiled_net.h"
#include "nn/sequential.h"
#include "slim/fluid_model.h"

namespace fluid::dist {

class WorkerNode {
 public:
  WorkerNode(std::string name, slim::FluidNetConfig config,
             TransportPtr transport);
  ~WorkerNode();
  WorkerNode(const WorkerNode&) = delete;
  WorkerNode& operator=(const WorkerNode&) = delete;

  /// Announce (kHello) and start the serving loop.
  void Start();

  /// Graceful shutdown: stop serving, close the transport. Idempotent.
  void Stop();

  /// Simulated power failure: the serving loop dies and the transport
  /// closes without a goodbye — the master finds out the hard way.
  void Crash();

  bool running() const { return running_; }
  const std::string& name() const { return name_; }

  /// Run a deployed model directly (no master involved) — the Fig. 1(c)
  /// master-failure path.
  core::StatusOr<core::Tensor> LocalInfer(const std::string& model,
                                          const core::Tensor& input);
  /// Serving-path variant: consumes the input so the whole forward can
  /// ping-pong activations through the buffer pool (the input's storage
  /// is recycled by the first layer). Bitwise-identical results.
  core::StatusOr<core::Tensor> LocalInfer(const std::string& model,
                                          core::Tensor&& input);

  std::vector<std::string> DeploymentNames() const;

  /// Infer frames served over the transport since Start().
  std::int64_t served() const { return served_; }
  /// Samples served across those frames (a coalesced [N,...] batch frame
  /// counts N — the master's batched serving path ships these).
  std::int64_t samples_served() const { return samples_served_; }
  /// Infer frames that arrived with an int8 (wire v3) payload — the
  /// negotiation tests key on this to prove quantized frames really flow.
  std::int64_t quant_frames() const { return quant_frames_; }
  /// Infer frames that arrived with a v4 SLO block attached.
  std::int64_t slo_frames() const { return slo_frames_; }
  /// Infer frames whose int8 payload was a quantized *input shard* (wire
  /// v5, `int8_input_wire` negotiation) rather than cut activations.
  std::int64_t input_quant_frames() const { return input_quant_frames_; }
  /// Infer frames that arrived with a v6 trace block (and had it echoed,
  /// service duration filled, on the reply).
  std::int64_t trace_frames() const { return trace_frames_; }
  /// Wire byte/frame counters of this worker's link to the master.
  WireStats wire_stats() const { return transport_->wire_stats(); }
  /// Samples served per scheduling class (from v4 SLO blocks; frames
  /// without one are unclassified and counted nowhere here).
  std::int64_t samples_served_class(std::size_t cls) const {
    return cls < 3 ? samples_by_class_[cls].load() : 0;
  }
  /// Times the serving loop picked a queued frame over an older one —
  /// strict-class-then-EDF reorders actually exercised (0 on a link that
  /// never queued more than one frame).
  std::int64_t priority_reorders() const { return priority_reorders_; }

 private:
  void ServeLoop();
  // Handlers may strip the request's bulk payloads (move them into the
  // forward pass); ServeLoop recycles whatever storage remains afterwards.
  Message Handle(Message& msg);
  Message HandleDeploy(const Message& msg);
  Message HandleInfer(Message& msg);

  std::string name_;
  slim::FluidNetConfig config_;
  TransportPtr transport_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<std::int64_t> served_{0};
  std::atomic<std::int64_t> samples_served_{0};
  std::atomic<std::int64_t> quant_frames_{0};
  std::atomic<std::int64_t> slo_frames_{0};
  std::atomic<std::int64_t> input_quant_frames_{0};
  std::atomic<std::int64_t> trace_frames_{0};
  std::atomic<std::int64_t> samples_by_class_[3]{};
  std::atomic<std::int64_t> priority_reorders_{0};

  mutable std::mutex mu_;  // guards deployments_
  std::map<std::string, nn::CompiledNet> deployments_;
};

}  // namespace fluid::dist
