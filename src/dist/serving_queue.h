#pragma once
// BatchScheduler: the continuous, SLO-aware request pool in front of
// MasterNode.
//
// Serving used to coalesce one batch, hand it to a serve callback, and
// only admit the next batch when the whole thing completed — so a
// straggler shard or a long HighAccuracy pipeline stalled everything
// queued behind it. The scheduler is now iteration-level (Orca-style,
// cf. NeuPIMs' ready/running queues and `max_active_reqs`): requests are
// admitted into a bounded active pool, and the serve side repeatedly asks
// for the next *chunk* of work — up to `ha_chunk` samples in the HA
// pipeline, up to `max_batch` in the fan-out — assembled across requests
// by priority class (strict) and deadline (earliest first within a
// class). New arrivals splice in at the next chunk boundary instead of
// behind the batch ahead; an expiring high-class request preempts queued
// lower-class work at chunk granularity.
//
// Request lifecycle:
//
//   Submit ──admission (max_active_reqs, queue_capacity, backpressure
//            bounded by the request's own timeout)──▶ READY (per-class,
//   deadline-ordered) ──first chunk──▶ RUNNING (rows move chunk by
//   chunk; a multi-sample request may span several in-flight chunks)
//   ──all rows resolved──▶ promise resolves (late completion still
//   delivers, counted as a deadline miss; a request that expires while
//   still READY fails kDeadlineExceeded instead of wasting compute).
//
// Contract with the serve callback: it runs on the drain thread and pulls
// work via NextChunk(); for every chunk it takes it must eventually call
// CompleteRows/CompleteChunk (success) or FailChunk (failure) for every
// row, before returning. Those resolution calls may come from any thread
// (a master resolves pipeline frames on its link receive path) as long as
// the callback has not yet returned. Rows it leaves unresolved are failed
// by Stop(). The scheduler owns the requests throughout — the callback
// only ever sees slices and resolves them.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/tensor.h"

namespace fluid::obs {
class Histogram;
}  // namespace fluid::obs

namespace fluid::dist {

/// One answered inference request.
struct InferReply {
  core::Tensor logits;
  std::string served_by;  // e.g. "master:lower50", "worker[1]:upper50"
};

/// Scheduling class of a request. Lower value = more urgent. The
/// scheduler serves strictly by class and earliest-deadline-first within
/// a class; the class also rides the wire (v4 SLO block) so workers can
/// account per class.
enum class Priority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};
inline constexpr std::size_t kNumPriorityClasses = 3;

/// Stable name of a priority class (logs, bench JSON).
std::string_view PriorityName(Priority p);

/// Per-request submission knobs (InferAsync defaults to kNormal).
struct SubmitOptions {
  /// Budget: admission backpressure, queueing and service all count
  /// against it. The deadline is submit time + timeout.
  std::chrono::milliseconds timeout{5000};
  Priority priority = Priority::kNormal;
  /// Distributed-tracing context (obs/trace.h). 0 = untraced (the
  /// sampled-out common case); a nonzero id makes the scheduler record
  /// admission/ready-wait/chunk/request spans under it, parented to
  /// trace_parent (the submitter's span, e.g. router.dispatch).
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent = 0;
};

/// Knobs of the admission/scheduling policy and the HA pipeline schedule.
struct BatchOptions {
  /// Assemble at most this many samples into one fan-out chunk.
  std::size_t max_batch = 16;
  /// Straggler window: when a blocking chunk grab finds fewer rows than it
  /// could take, wait at most this long for more before serving.
  std::chrono::milliseconds max_delay{2};
  /// Bound on backlog samples (rows not yet handed to any chunk); Submit
  /// blocks (backpressure) when reached.
  std::size_t queue_capacity = 1024;
  /// Bound on requests in the active pool (ready + running) — the
  /// admission-control knob of iteration-level schedulers. Submit blocks
  /// until a slot frees, up to the request's own timeout.
  std::size_t max_active_reqs = 256;
  /// HighAccuracy pipeline: samples per cut-activation frame — the
  /// scheduling quantum. Smaller chunks overlap more front compute with
  /// the link and let arrivals/preemption cut in sooner, at more
  /// per-frame overhead.
  std::size_t ha_chunk = 8;
  /// HighAccuracy pipeline: cut-activation frames in flight on the link
  /// before the sender waits for a result. 1 = store-and-forward.
  std::size_t ha_window = 2;
};

/// Lock-free load mirror for dispatchers (the fleet router's least-loaded
/// policy probes this on every route). Published from relaxed atomics that
/// the scheduler updates wherever the locked counters change, so reading
/// it never contends with admission or chunk assembly.
struct SchedulerLoad {
  std::int64_t active_requests = 0;  // ready + running
  std::int64_t queue_depth = 0;      // backlog rows not yet in any chunk
  std::int64_t deadline_misses = 0;  // lifetime
  std::int64_t completed = 0;        // lifetime
  std::int64_t max_active_reqs = 0;  // the admission bound (static)
  double occupancy = 0.0;            // EMA active/max_active, [0, 1]
  /// False when a Submit right now would block on admission backpressure
  /// (active pool or backlog at its bound). Approximate by construction —
  /// a racing admission can flip it — but that is all a router needs.
  bool admission_open = true;
};

/// Counters the control plane consumes. Occupancy is now defined over the
/// *active pool* (continuous admission has no per-coalesce "batch size"
/// worth averaging): how full the ready+running pool runs against
/// max_active_reqs.
struct SchedulerStats {
  std::int64_t submitted = 0;   // requests ever admitted
  std::int64_t completed = 0;   // requests resolved (delivered or failed)
  std::int64_t batches = 0;     // chunks handed to the serve side
  std::int64_t coalesced_samples = 0;  // rows across those chunks
  std::int64_t queue_depth = 0;        // backlog rows not yet in any chunk
  std::int64_t active_requests = 0;    // ready + running right now
  std::int64_t running_requests = 0;   // requests with rows in service
  std::int64_t max_active_seen = 0;    // high-water mark of active_requests
  /// Lifetime mean rows per chunk (0 before the first chunk).
  double avg_batch = 0.0;
  /// Exponential moving average of active_requests / max_active_reqs,
  /// sampled at each chunk assembly, in [0, 1]. ~1 with a standing
  /// backlog means admission control is the limiter — the serving path
  /// is saturated.
  double occupancy = 0.0;
  /// Requests that blew their deadline: expired while READY (failed
  /// without service) or delivered late (served anyway — serving late
  /// beats dropping — but the SLO was missed).
  std::int64_t deadline_misses = 0;
  /// Chunk assemblies that filled entirely with higher-class rows while
  /// lower-class work waited — the count of preemptive scheduling
  /// decisions at chunk granularity.
  std::int64_t preemptions = 0;
  /// Per-class admissions and current active-pool occupancy.
  std::int64_t class_submitted[kNumPriorityClasses] = {0, 0, 0};
  std::int64_t class_active[kNumPriorityClasses] = {0, 0, 0};
};

class BatchScheduler {
 public:
  /// One admitted request in the pool. The serve side sees requests only
  /// through Slice pointers; `input` is immutable after admission and
  /// stays valid until every row is resolved.
  struct Request {
    core::Tensor input;        // [n, C, S, S]; n >= 1
    std::int64_t samples = 0;  // input.shape()[0]
    Priority priority = Priority::kNormal;
    std::chrono::steady_clock::time_point deadline;
    std::promise<core::StatusOr<InferReply>> promise;

    // Observability (obs/): trace context from SubmitOptions plus the
    // lifecycle timestamps (steady-clock µs) behind the latency
    // breakdown — submit→admit (admission), admit→first chunk (READY
    // wait / queue wait), first chunk→finalize (service).
    std::uint64_t trace_id = 0;
    std::uint64_t trace_parent = 0;
    std::int64_t submit_us = 0;
    std::int64_t admit_us = 0;
    std::int64_t first_us = 0;  // 0 until the first chunk takes rows

    // Scheduling/serve progress — touched only under the scheduler lock.
    std::int64_t scheduled_rows = 0;  // rows handed out in chunks
    std::int64_t resolved_rows = 0;   // rows completed or failed
    core::Tensor logits;              // [n, classes]; grows on first completion
    std::string served_by;            // device that served row 0
    bool failed = false;
    core::Status error = core::Status::Ok();
    std::list<Request>::iterator self;  // position in its ready/running list
  };

  /// A contiguous run of one request's rows inside a chunk.
  struct Slice {
    Request* req = nullptr;
    std::int64_t row0 = 0;  // first row of req->input this slice covers
    std::int64_t rows = 0;
  };

  /// One scheduling quantum: slices from one or more requests, assembled
  /// by class then deadline. `slices` is recycled across grabs (clear()
  /// keeps capacity).
  struct WorkChunk {
    std::vector<Slice> slices;
    std::int64_t rows = 0;
    /// Most urgent class present (rides the wire SLO block).
    Priority top = Priority::kLow;
    /// Max deadline across slices: the chunk serves under its most
    /// patient member's budget (serving late beats dropping).
    std::chrono::steady_clock::time_point deadline;
    /// Min deadline across slices: the tightest remaining budget (what
    /// the wire SLO block advertises).
    std::chrono::steady_clock::time_point urgent_deadline;
    /// Trace context of the first traced slice (0 when none): the serve
    /// side stamps wire frames and records master.chunk spans under it.
    std::uint64_t trace_id = 0;
    std::uint64_t trace_parent = 0;
  };

  /// Serve callback: runs on the drain thread whenever the pool has
  /// schedulable work; pulls chunks until NextChunk returns false.
  using ServeFn = std::function<void(BatchScheduler&)>;

  BatchScheduler(BatchOptions options, ServeFn serve);
  ~BatchScheduler();
  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueue one input ([n, C, S, S]) from any thread at kNormal priority.
  std::future<core::StatusOr<InferReply>> Submit(
      core::Tensor input, std::chrono::milliseconds timeout);

  /// Enqueue with explicit priority/timeout. Blocks only on admission
  /// backpressure (active pool at max_active_reqs, or backlog at
  /// queue_capacity), and never past the request's own timeout — no slot
  /// by then fails it kDeadlineExceeded. The future resolves when every
  /// row of this request has been served (or failed), or with
  /// kUnavailable at Stop().
  std::future<core::StatusOr<InferReply>> Submit(core::Tensor input,
                                                 const SubmitOptions& opts);

  /// Stop the drain thread and fail everything still unresolved.
  /// Idempotent.
  void Stop();

  bool running() const { return running_; }
  SchedulerStats stats() const;
  /// Lock-free load snapshot (relaxed atomics only — never touches mu_).
  SchedulerLoad load() const;
  const BatchOptions& options() const { return options_; }

  // ---- Serve-side API: call only from the serve callback's thread. ----

  /// Assemble the next chunk of up to `max_samples` rows. Waits up to
  /// `wait` for schedulable work; a positive `wait` also grants the
  /// max_delay straggler window when fewer rows than `max_samples` are
  /// on hand (wait == 0 is the non-blocking window-refill grab). Expired
  /// READY requests are failed (and counted) here, at the chunk boundary.
  /// Returns false when nothing is schedulable (or stopping) — never an
  /// empty chunk.
  bool NextChunk(std::size_t max_samples, std::chrono::milliseconds wait,
                 WorkChunk& chunk);

  /// Resolve `rows` rows of `slice` starting at `offset` (slice-relative)
  /// with `logits` (row-major, `classes` floats per row). Records
  /// `served_by` when the request's first row resolves; resolves the
  /// promise when the request's last row does.
  void CompleteRows(const Slice& slice, std::int64_t offset,
                    std::int64_t rows, const float* logits,
                    std::int64_t classes, const std::string& served_by);

  /// Resolve a whole chunk from one contiguous result tensor
  /// ([chunk.rows, classes], rows in slice order).
  void CompleteChunk(const WorkChunk& chunk, const core::Tensor& logits,
                     const std::string& served_by);

  /// Fail every row of the chunk (after failover exhausted). A request
  /// with any failed row fails as a whole once its last row resolves.
  void FailChunk(const WorkChunk& chunk, const core::Status& status);

  /// Event wait for a callback that keeps frames in flight: block until
  /// Wake() is called, `until` passes, or — when `want_work` — the pool
  /// has schedulable rows. Stop() alone does not end the wait: the
  /// callback still has to retire what it has in flight.
  void AwaitEvent(bool want_work, std::chrono::steady_clock::time_point until);

  /// End a pending AwaitEvent (or make the next one return at once).
  /// Callable from any thread.
  void Wake();

 private:
  void DrainLoop();
  /// Fail + finalize every request still in the pool (ready or running).
  void FailPoolLocked(const core::Status& status);
  void ExpireReadyLocked(std::chrono::steady_clock::time_point now);
  void AssembleLocked(std::size_t max_samples, WorkChunk& chunk);
  void ResolveRowsLocked(Request* req, std::int64_t row0, std::int64_t rows,
                         const float* logits, std::int64_t classes,
                         const std::string& served_by);
  void FinalizeLocked(Request* req);
  bool HasBacklogLocked() const { return backlog_rows_ > 0; }
  std::int64_t ActiveRequestsLocked() const;
  /// Mirror the locked load counters into the relaxed atomics load()
  /// reads. Called at the end of every locked region that moved them.
  void PublishLoadLocked();

  BatchOptions options_;
  ServeFn serve_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // backlog became non-empty / stopped
  std::condition_variable space_cv_;  // admission has room again
  /// READY requests per class, ordered by deadline (EDF insert).
  std::list<Request> ready_[kNumPriorityClasses];
  /// Requests with at least one row handed to a chunk, until resolved.
  std::list<Request> service_;
  std::int64_t backlog_rows_ = 0;  // rows not yet assembled into any chunk
  bool stop_ = false;
  bool woken_ = false;  // Wake() since the last AwaitEvent returned
  std::atomic<bool> running_{false};

  // Stats (guarded by mu_).
  std::int64_t submitted_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t batches_ = 0;
  std::int64_t coalesced_samples_ = 0;
  std::int64_t active_requests_ = 0;  // ready + running
  std::int64_t max_active_seen_ = 0;
  std::int64_t deadline_misses_ = 0;
  std::int64_t preemptions_ = 0;
  std::int64_t class_submitted_[kNumPriorityClasses] = {0, 0, 0};
  std::int64_t class_active_[kNumPriorityClasses] = {0, 0, 0};
  double ema_occupancy_ = 0.0;  // seeds on the first chunk
  bool ema_seeded_ = false;

  // Always-on latency-breakdown histograms (obs/metrics.h), one pair per
  // priority class: queue wait (submit→first chunk) and service (first
  // chunk→finalize). Cached at construction; recording is lock-free.
  obs::Histogram* queue_wait_ms_[kNumPriorityClasses] = {};
  obs::Histogram* service_ms_[kNumPriorityClasses] = {};

  // Lock-free mirrors of the load-relevant counters above, stored
  // (relaxed) by PublishLoadLocked and read by load() without mu_.
  std::atomic<std::int64_t> load_active_{0};
  std::atomic<std::int64_t> load_backlog_{0};
  std::atomic<std::int64_t> load_misses_{0};
  std::atomic<std::int64_t> load_completed_{0};
  std::atomic<double> load_occupancy_{0.0};

  std::thread thread_;
};

}  // namespace fluid::dist
