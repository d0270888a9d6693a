#pragma once
// MasterNode: the device that owns the trained Fluid store, deploys slices,
// and serves inference requests with failover.
//
// The master holds local deployments (its own resident sub-networks plus
// the pipeline front) and talks to one or more WorkerNodes over Transports.
// Request routing implements the paper's two modes, batch-first:
//
//   HighAccuracy  — pipeline: run the front half locally on the coalesced
//                   batch, ship cut activations to the worker hosting the
//                   back half in `ha_chunk`-sample frames with up to
//                   `ha_window` frames in flight — front compute of chunk
//                   k+1 overlaps the link and the worker's back compute of
//                   chunk k (the overlapped schedule sim/pipeline_sim
//                   models). Full-width accuracy, link-bound throughput.
//   HighThroughput — fan-out: the coalesced batch is sharded across every
//                   live device hosting a self-sufficient slice (master
//                   included); remote shards ship first so worker compute
//                   overlaps the master's own shard.
//
// Serving is asynchronous and iteration-level: InferAsync admits the
// request into a BatchScheduler pool (bounded by max_active_reqs, with
// per-request deadline + priority class — see dist/serving_queue.h) and
// returns a future. The drain thread pulls *chunks* — slices assembled
// across requests by class and deadline — and serves them continuously:
// in HA mode each `ha_chunk` cut-activation frame is a scheduling
// quantum, so frames from different requests share the `ha_window`
// in-flight window, new arrivals splice in at the next frame boundary
// (their time-to-first-chunk excludes the residual service of whatever
// was ahead), and an expiring high-class request preempts queued
// lower-class rows at frame granularity. The fused forward is bitwise
// deterministic per sample, so any chunk grouping yields results
// identical to serving each request alone. The blocking Infer shim rides
// the same path.
//
// Failover (paper Fig. 1b): any transport-level failure marks that worker
// dead and its whole shard (HT) or the whole batch (HA pipeline) is
// re-served from the surviving devices in the same serve pass — callers
// never see a worker death. A crashed worker can later be revived with
// ReattachWorker, which re-deploys everything it hosted.
//
// Data plane: every attached worker link has a receive path — one thread
// that is the only caller of that transport's Recv. It decodes each
// reply, stamps it and files it by seq under the serving-core lock, held
// only for the filing. A good HA pipeline reply resolves its chunk right
// there; every other reply (shards, deploy/heartbeat acks) wakes its
// awaiter, which waits on a condition variable — so the core lock is
// never held across a Recv, and probes, deploys and stats never queue
// behind a link wait.
//
// Thread safety: the node is internally locked — InferAsync/Infer may be
// called from any number of client threads while the orchestrator probes
// and redeploys. One mutex serializes the serving core (released while a
// caller waits for a reply); concurrency comes from batching and the
// receive paths, not from concurrent forwards.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.h"
#include "dist/blueprint.h"
#include "dist/serving_queue.h"
#include "dist/transport.h"
#include "nn/checkpoint.h"
#include "nn/compiled_net.h"
#include "nn/sequential.h"
#include "sim/scenario.h"
#include "slim/fluid_model.h"

namespace fluid::obs {
class Histogram;
}  // namespace fluid::obs

namespace fluid::dist {

/// Which deployment serves which role. Names refer to deployments made via
/// DeployLocal / DeployToWorker; empty names disable that role.
struct Plan {
  std::string master_standalone;  // master-resident self-sufficient slice
  std::string worker_standalone;  // worker-resident self-sufficient slice
  std::string pipeline_front;     // local front half (HighAccuracy mode)
  std::string pipeline_back;      // remote back half (HighAccuracy mode)
  std::size_t back_worker = 0;    // which worker hosts pipeline_back
};

/// Served-sample counters. served_* count samples (one blocking Infer of a
/// [1,...] input still counts 1); failovers/reattaches count events.
struct MasterStats {
  std::int64_t served_local = 0;     // master-resident standalone
  std::int64_t served_remote = 0;    // worker-resident standalone
  std::int64_t served_pipeline = 0;  // HA front+back pipeline
  std::int64_t failovers = 0;        // shards/chunks re-served after a death
  std::int64_t batches = 0;          // chunks (scheduling quanta) served
  std::int64_t coalesced_samples = 0;
  std::int64_t stale_replies = 0;    // replies dropped: seq matched nothing
  std::int64_t reattaches = 0;       // workers revived via ReattachWorker
  std::int64_t quant_cut_frames = 0; // HA cut frames shipped int8 (wire v3)
  std::int64_t quant_input_frames = 0;  // HT shards shipped int8 (wire v5)
};

/// A master's serving load, cheap enough to probe per routing decision.
/// Sourced from the scheduler's lock-free load mirror plus an atomic
/// alive-worker count — taking it NEVER touches the serving-core lock, so
/// a router probing every partition on every dispatch cannot contend with
/// chunk service. (It briefly takes the start/stop latch serving_mu_ to
/// copy the scheduler handle; that lock is never held while serving.)
struct LoadSnapshot {
  bool serving = false;         // scheduler running
  bool admission_open = true;   // a Submit now would not block on admission
  double pool_occupancy = 0.0;  // EMA active/max_active, [0, 1]
  std::int64_t active_requests = 0;
  std::int64_t queue_depth = 0;      // backlog rows
  std::int64_t deadline_misses = 0;  // lifetime
  std::int64_t completed = 0;        // lifetime
  double miss_rate = 0.0;            // lifetime misses / completed
  std::size_t alive_workers = 0;
};

class MasterNode {
 public:
  explicit MasterNode(slim::FluidNetConfig config);
  ~MasterNode();
  MasterNode(const MasterNode&) = delete;
  MasterNode& operator=(const MasterNode&) = delete;

  /// Adopt a connected transport as the next worker. Returns its index.
  std::size_t AttachWorker(TransportPtr transport);

  /// Revive a dead worker slot with a fresh transport: everything the slot
  /// ever hosted is re-deployed (blueprint + weights are kept master-side),
  /// then the slot rejoins routing. Fails — leaving the slot dead — if the
  /// new link cannot complete the re-deploys within `timeout` each.
  core::Status ReattachWorker(
      std::size_t index, TransportPtr transport,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(2000));

  std::size_t num_workers() const;
  /// Workers currently believed alive (updated lazily by failed RPCs and
  /// eagerly by ProbeWorkers).
  std::size_t AliveWorkers() const;
  bool WorkerAlive(std::size_t index) const;

  /// Host a model on the master itself, compiled into an nn::CompiledNet
  /// (every local forward — HA front, standalone and failover slice —
  /// runs the compiled plan).
  void DeployLocal(std::string name, nn::Sequential model);

  /// Ship blueprint + weights to worker `worker` and wait for its ack.
  core::Status DeployToWorker(
      const std::string& name, const ModelBlueprint& blueprint,
      const nn::StateDict& state,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(2000),
      std::size_t worker = 0);

  void SetPlan(Plan plan);
  Plan plan() const;

  void SetMode(sim::Mode mode);
  sim::Mode mode() const;

  /// Start the async serving runtime with the given coalescing policy.
  /// Idempotent while running (the options of the first call win).
  void StartServing(BatchOptions options = {});
  /// Stop the scheduler; queued-but-unserved requests fail kUnavailable.
  void StopServing();
  bool serving() const;

  /// Enqueue one input ([n, C, S, S]) for continuous serving at kNormal
  /// priority; thread-safe. Starts the serving runtime with default
  /// options if not running. The future resolves when every row of this
  /// request has been served (failover included) — it fails only when no
  /// deployment anywhere can answer, or the request expired unserved.
  std::future<core::StatusOr<InferReply>> InferAsync(
      core::Tensor input, std::chrono::milliseconds timeout);

  /// Same, with an explicit priority class and deadline. The class rides
  /// the wire (v4 SLO block) with every frame that carries the request's
  /// rows; an expiring request preempts lower classes at chunk boundaries.
  std::future<core::StatusOr<InferReply>> InferAsync(
      core::Tensor input, const SubmitOptions& opts);

  /// Blocking shim over the same serving core: when the scheduler runs,
  /// equivalent to InferAsync(...).get() (the request coalesces with
  /// concurrent callers'); otherwise the input is served inline as a
  /// batch of one. For a multi-sample input, `served_by` reports the
  /// device that served the first sample.
  core::StatusOr<InferReply> Infer(const core::Tensor& input,
                                   std::chrono::milliseconds timeout);

  /// Allow wire v6 traced frames on worker `index`'s link. Off by default:
  /// a v5-or-older peer would reject version-6 frames and drop the
  /// connection, so only enable it for peers known to speak v6 (same
  /// binary, or a deploy that acked it). With the flag off a sampled
  /// request still traces master-side — its frames just ship untraced
  /// (byte-identical to v5) and the per-worker wire/service split is
  /// absent from the timeline.
  void EnableTraceWire(std::size_t index, bool on = true);

  /// Heartbeat every believed-alive worker; mark non-responders dead.
  /// Returns the number still alive. Used by the Orchestrator tick.
  std::size_t ProbeWorkers(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(250));

  /// Hot-path load probe for dispatchers (see struct LoadSnapshot above).
  LoadSnapshot ProbeLoad() const;

  MasterStats stats() const;
  /// Wire byte/frame counters summed over every attached worker link —
  /// the master-side half of the serving fleet's wire cost.
  WireStats wire_stats() const;
  /// Queue/coalescing counters for the control plane (zeros when the
  /// scheduler is not running).
  SchedulerStats scheduler_stats() const;
  const slim::FluidNetConfig& config() const { return config_; }

 private:
  /// One deployment a worker ACKed: the encoded DeployRequest tag is kept
  /// so ReattachWorker can replay the full deploy history onto a fresh
  /// link, and the negotiated quant options decide the wire format of
  /// this deployment's activation frames (int8_wire ⇒ v3 cut frames).
  struct Deployment {
    std::string name;
    std::string tag;
    QuantOptions quant;
  };

  struct WorkerHandle {
    TransportPtr transport;
    /// The link's receive path: the only caller of transport->Recv. Runs
    /// until the link closes; joined by ReattachWorker and ~MasterNode
    /// (never under mu_, which it takes to file replies).
    std::thread receiver;
    std::string name;  // from its kHello, if seen
    bool alive = true;
    /// ReattachWorker is replaying deployments onto a fresh link: RPCs
    /// may use it, routing may not.
    bool replaying = false;
    /// Send wire v6 traced frames on this link (see EnableTraceWire).
    bool trace_wire = false;
    std::vector<Deployment> deployments;
    /// Bumped whenever a transport is installed; an awaiter or receive
    /// path that sees it move belongs to a replaced link.
    std::uint64_t link_gen = 0;
    /// The receive path ended (Recv failed); `link_error` says why.
    bool link_down = false;
    core::Status link_error = core::Status::Ok();
    /// Correlation ids of RPCs/frames currently in flight on this link.
    std::vector<std::int64_t> pending;
    /// Replies filed by the receive path, waiting for their awaiter.
    /// Flat and reused: filing a reply allocates nothing once warm.
    std::vector<std::pair<std::int64_t, Message>> replies;
  };

  /// One HA cut-activation frame in flight: its seq, link and rows.
  struct Flight {
    std::int64_t seq = 0;
    std::size_t worker = 0;
    BatchScheduler::WorkChunk chunk;
  };

  /// The HA in-flight window, shared by the drain thread (launches frames,
  /// runs failover) and the receive paths (retire replies). Guarded by
  /// mu_; `sched` is set only while ServePipelineContinuous runs, which
  /// does not return before every flight has retired or been reclaimed.
  struct PipelineWindow {
    BatchScheduler* sched = nullptr;
    std::size_t window = 1;       // ha_window of the running loop
    std::vector<Flight> flights;  // launch order
    std::vector<Flight> failed;   // condemned frames awaiting failover
    bool broken = false;          // stop launching, abandon the window
  };

  /// Attribution for one contiguous run of a batch's rows: every sample
  /// in [row0, row0+rows) was served by `*label`. The label points at the
  /// cached per-device strings below (rebuilt on SetPlan/AttachWorker,
  /// guarded by mu_), so attributing a shard costs a pointer, not a
  /// string build — zero allocations on the serve path.
  struct Attribution {
    std::int64_t row0 = 0;
    std::int64_t rows = 0;
    const std::string* label = nullptr;
  };

  /// Result of serving one coalesced batch.
  struct BatchResult {
    core::Tensor logits;  // [N, classes]
    /// Sorted by row0, disjoint, covering every row of `logits`.
    std::vector<Attribution> served_by;
  };

  // All *Locked members require mu_ held. Those that await a reply
  // release it while they wait, so a caller must re-read shared state
  // (workers_, plan_, local_) after one returns instead of caching it.
  core::StatusOr<Message> RpcLocked(std::size_t w, Message msg,
                                    std::chrono::milliseconds timeout);
  core::Status SendLocked(std::size_t w, const Message& msg);
  /// Ship a group of frames to one worker as a single link transaction
  /// (Transport::SendBatch). Same failure semantics as SendLocked: any
  /// error marks the worker dead and the whole group is suspect.
  core::Status SendBatchLocked(std::size_t w, std::span<const Message> msgs);
  /// Wait for the reply correlated to `seq` to be filed by the receive
  /// path. A wait that runs its window out condemns the worker; one whose
  /// deadline was already spent on entry does not.
  core::StatusOr<Message> AwaitReplyLocked(
      std::size_t w, std::int64_t seq,
      std::chrono::steady_clock::time_point deadline);
  /// Drop `seq` from the link's pending set and any filed reply, so a
  /// late answer takes the counted stale-drop path.
  void ForgetSeqLocked(std::size_t w, std::int64_t seq);
  bool WorkerHasDeploymentLocked(std::size_t w, const std::string& name) const;
  const Deployment* FindDeploymentLocked(std::size_t w,
                                         const std::string& name) const;
  /// Take the worker out of routing and close its link (which ends its
  /// receive path; the thread is joined later, outside mu_). Fails any
  /// HA frames in flight on it over to the drain thread.
  void MarkDeadLocked(std::size_t w, const core::Status& why);

  /// Install `transport` on slot `w` and start its receive path.
  void StartLinkLocked(std::size_t w, TransportPtr transport);
  /// Receive path body for slot `w`'s link generation `gen`.
  void ReceiveLoop(std::size_t w, Transport* link, std::uint64_t gen);
  /// Route one decoded frame from worker `w` to its flight or awaiter.
  /// True when it was parked for an awaiter (who then needs a notify).
  bool FileReplyLocked(std::size_t w, Message&& reply);
  /// Retire HA flight `index` with `reply` (receive path).
  void RetireFlightLocked(std::size_t index, Message&& reply);
  /// Condemn the whole HA window: move every flight to `failed` with its
  /// seq forgotten, and wake the drain thread to fail them over.
  void BreakWindowLocked();

  /// True while the HA pipeline can serve: HA mode, pipeline roles
  /// planned, the back worker alive and the front resident locally.
  bool HaViableLocked() const;
  /// Rebuild the cached attribution labels from plan_ + workers_.
  void RefreshLabelsLocked();

  core::StatusOr<BatchResult> ServeBatchLocked(
      const core::Tensor& input, std::chrono::steady_clock::time_point deadline);
  core::StatusOr<BatchResult> ServePipelineBatchLocked(
      const core::Tensor& input, std::chrono::steady_clock::time_point deadline);
  /// `slo` (when serving a scheduler chunk) stamps the v4 SLO block —
  /// class + remaining budget — onto every shard frame shipped; a traced
  /// chunk additionally stamps the v6 trace block (parented to
  /// `trace_parent`, the master.chunk span) on trace_wire links.
  core::StatusOr<BatchResult> ServeShardedLocked(
      const core::Tensor& input, std::chrono::steady_clock::time_point deadline,
      const BatchScheduler::WorkChunk* slo = nullptr,
      std::uint64_t trace_parent = 0);
  core::StatusOr<core::Tensor> ServeShardRemoteLocked(
      std::size_t w, const std::string& name, core::Tensor shard,
      std::chrono::steady_clock::time_point deadline);

  /// Scheduler drain-thread entry: pull chunks continuously and route
  /// each by mode, until the pool has nothing schedulable.
  void ServeActive(BatchScheduler& sched);
  /// Iteration-level HA serving: ha_chunk frames as scheduling quanta
  /// sharing the ha_window in-flight window. Launches whatever fits the
  /// window, lets the receive path retire replies in completion order,
  /// and fails broken frames over. Returns false when the pool drained
  /// (return to the drain loop), true when the pipeline broke or the mode
  /// changed (caller re-checks and re-routes).
  bool ServePipelineContinuous(BatchScheduler& sched);
  /// Front forward + quantize + send of one chunk as an HA frame. False
  /// (with the chunk handed back in `chunk`) when the pipeline cannot
  /// take it; a send failure breaks the window.
  bool LaunchFrame(BatchScheduler::WorkChunk& chunk);
  /// Serve one chunk via the standalone fan-out (HT mode and the
  /// failover target for broken pipeline frames) and resolve its rows.
  void ServeChunkSharded(BatchScheduler& sched,
                         const BatchScheduler::WorkChunk& chunk);
  /// Stack a chunk's slices into one contiguous [rows, ...] tensor.
  /// A chunk that is exactly one whole request borrows that request's
  /// input (no copy, returns its address); otherwise `storage` is filled
  /// from the pool and its address returned.
  const core::Tensor* StackChunk(const BatchScheduler::WorkChunk& chunk,
                                 core::Tensor& storage);
  /// Requires serving_mu_ held. No-op while the scheduler runs.
  void StartServingLocked(BatchOptions options);

  slim::FluidNetConfig config_;

  mutable std::mutex mu_;  // guards everything below
  /// Signalled when a receive path files a reply or a link goes down.
  /// condition_variable_any so awaiters can wait on mu_ as held by their
  /// caller's lock_guard.
  std::condition_variable_any reply_cv_;
  /// A deque: handles keep their address when a worker is attached while
  /// a receive path or an awaiter holds a reference.
  std::deque<WorkerHandle> workers_;
  PipelineWindow ha_;
  std::map<std::string, nn::CompiledNet> local_;
  Plan plan_;
  sim::Mode mode_ = sim::Mode::kHighAccuracy;
  MasterStats stats_;
  std::int64_t next_seq_ = 1;
  std::size_t round_robin_ = 0;
  BatchOptions batch_options_;  // HA chunk/window knobs for the serve core
  /// Cached attribution labels (see Attribution): one per device role,
  /// rebuilt on SetPlan/AttachWorker instead of concatenated per shard.
  std::string label_local_;
  std::string label_pipeline_;
  std::deque<std::string> label_worker_;  // stable addresses on growth

  /// Guards scheduler start/stop; never held while serving (the scheduler
  /// thread takes mu_, and StopServing joins that thread) nor across
  /// Submit (backpressure can block there; the control plane — StopServing,
  /// scheduler_stats — must stay reachable meanwhile). Shared ownership
  /// lets Infer/InferAsync keep the scheduler alive across a Submit that
  /// races StopServing.
  mutable std::mutex serving_mu_;
  std::shared_ptr<BatchScheduler> scheduler_;

  /// Lock-free mirror of the alive-worker count (maintained wherever
  /// `WorkerHandle::alive` flips, always under mu_) so LoadSnapshot can
  /// read it without the serving-core lock.
  std::atomic<std::size_t> alive_count_{0};

  /// Per-class pure-wire-time histograms (obs/metrics.h), recorded when a
  /// traced reply's echoed service duration lets the observed round trip
  /// split into link time vs worker compute. Cached at construction.
  obs::Histogram* wire_ms_[kNumPriorityClasses] = {};
};

}  // namespace fluid::dist
