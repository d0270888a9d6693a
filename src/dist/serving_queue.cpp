#include "dist/serving_queue.h"

#include <algorithm>
#include <utility>

#include "core/buffer_pool.h"
#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fluid::dist {

namespace {
using Clock = std::chrono::steady_clock;

// Weight of the newest sample in the occupancy moving average: the signal
// crosses ModeController's saturation threshold within a handful of
// chunks after a traffic shift.
constexpr double kOccupancyEmaAlpha = 0.25;

std::future<core::StatusOr<InferReply>> ReadyError(core::Status status) {
  std::promise<core::StatusOr<InferReply>> p;
  p.set_value(std::move(status));
  return p.get_future();
}
}  // namespace

std::string_view PriorityName(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "unknown";
}

BatchScheduler::BatchScheduler(BatchOptions options, ServeFn serve)
    : options_(options), serve_(std::move(serve)) {
  FLUID_CHECK_MSG(options_.max_batch >= 1, "BatchScheduler: max_batch < 1");
  FLUID_CHECK_MSG(options_.queue_capacity >= options_.max_batch,
                  "BatchScheduler: queue_capacity < max_batch");
  FLUID_CHECK_MSG(options_.max_active_reqs >= 1,
                  "BatchScheduler: max_active_reqs < 1");
  FLUID_CHECK_MSG(options_.ha_chunk >= 1 && options_.ha_window >= 1,
                  "BatchScheduler: ha_chunk/ha_window < 1");
  FLUID_CHECK_MSG(serve_ != nullptr, "BatchScheduler: null serve callback");
  // Latency-breakdown series, one pair per class. Registered once here so
  // the hot path records through cached pointers without the registry
  // mutex (see docs/observability.md for the naming scheme).
  auto& reg = obs::MetricsRegistry::Global();
  for (std::size_t c = 0; c < kNumPriorityClasses; ++c) {
    const std::string label{PriorityName(static_cast<Priority>(c))};
    queue_wait_ms_[c] = &reg.GetHistogram("fluid_sched_queue_wait_ms{class=\"" +
                                          label + "\"}");
    service_ms_[c] =
        &reg.GetHistogram("fluid_sched_service_ms{class=\"" + label + "\"}");
  }
  running_ = true;
  thread_ = std::thread(&BatchScheduler::DrainLoop, this);
}

BatchScheduler::~BatchScheduler() { Stop(); }

std::future<core::StatusOr<InferReply>> BatchScheduler::Submit(
    core::Tensor input, std::chrono::milliseconds timeout) {
  SubmitOptions opts;
  opts.timeout = timeout;
  return Submit(std::move(input), opts);
}

std::future<core::StatusOr<InferReply>> BatchScheduler::Submit(
    core::Tensor input, const SubmitOptions& opts) {
  if (input.empty() || input.shape().rank() < 1 || input.shape()[0] < 1) {
    return ReadyError(core::Status::InvalidArgument(
        "BatchScheduler::Submit: input needs a non-empty batch dim"));
  }
  const auto cls = static_cast<std::size_t>(opts.priority);
  if (cls >= kNumPriorityClasses) {
    return ReadyError(core::Status::InvalidArgument(
        "BatchScheduler::Submit: unknown priority class"));
  }
  const std::int64_t samples = input.shape()[0];
  const std::int64_t submit_us = obs::NowUs();
  const auto deadline = Clock::now() + opts.timeout;
  auto future = [&] {
    std::unique_lock<std::mutex> lock(mu_);
    // Admission control: the active pool (ready + running) is bounded by
    // max_active_reqs and the backlog by queue_capacity. Overload turns
    // into caller-visible latency instead of unbounded memory growth —
    // but only up to the request's own budget: a deadline it would blow
    // waiting for a slot fails here instead of blocking its caller
    // indefinitely.
    const bool admitted = space_cv_.wait_until(lock, deadline, [&] {
      const bool slot_room =
          active_requests_ <
          static_cast<std::int64_t>(options_.max_active_reqs);
      const bool sample_room =
          backlog_rows_ + samples <=
              static_cast<std::int64_t>(options_.queue_capacity) ||
          backlog_rows_ == 0;  // one oversized request may always enter
      return stop_ || (slot_room && sample_room);
    });
    if (stop_) {
      return ReadyError(
          core::Status::Unavailable("BatchScheduler stopped before Submit"));
    }
    if (!admitted) {
      return ReadyError(core::Status::DeadlineExceeded(
          "BatchScheduler::Submit: admission stayed blocked past the "
          "request's timeout"));
    }
    Request req;
    req.samples = samples;
    req.input = std::move(input);
    req.priority = opts.priority;
    req.deadline = deadline;
    req.trace_id = opts.trace_id;
    req.trace_parent = opts.trace_parent;
    req.submit_us = submit_us;
    req.admit_us = obs::NowUs();
    if (req.trace_id != 0) {
      auto& tracer = obs::Tracer::Global();
      tracer.Record(req.trace_id, tracer.NewSpanId(), req.trace_parent,
                    "sched.admission", "sched", submit_us,
                    req.admit_us - submit_us);
    }
    auto fut = req.promise.get_future();

    // EDF within the class: insert by deadline. Arrivals usually carry the
    // latest deadline, so the scan from the back is O(1) amortized.
    auto& list = ready_[cls];
    auto pos = list.end();
    while (pos != list.begin() && std::prev(pos)->deadline > req.deadline) {
      --pos;
    }
    auto it = list.insert(pos, std::move(req));
    it->self = it;

    backlog_rows_ += samples;
    ++active_requests_;
    ++class_active_[cls];
    ++submitted_;
    ++class_submitted_[cls];
    max_active_seen_ = std::max(max_active_seen_, active_requests_);
    PublishLoadLocked();
    return fut;
  }();
  cv_.notify_one();
  return future;
}

void BatchScheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
  if (thread_.joinable()) thread_.join();

  // The drain thread is gone; fail whatever it left unresolved (requests
  // still ready, plus any rows a serve callback dropped on the floor).
  std::lock_guard<std::mutex> lock(mu_);
  FailPoolLocked(core::Status::Unavailable(
      "BatchScheduler stopped with the request still queued"));
  running_ = false;
}

void BatchScheduler::FailPoolLocked(const core::Status& status) {
  for (auto& list : ready_) {
    while (!list.empty()) {
      Request* req = &list.front();
      req->failed = true;
      req->error = status;
      req->resolved_rows = req->samples;
      backlog_rows_ -= req->samples;
      FinalizeLocked(req);
    }
  }
  while (!service_.empty()) {
    Request* req = &service_.front();
    req->failed = true;
    if (req->error.ok()) req->error = status;
    backlog_rows_ -= req->samples - req->scheduled_rows;
    req->resolved_rows = req->samples;
    FinalizeLocked(req);
  }
}

SchedulerStats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.batches = batches_;
  s.coalesced_samples = coalesced_samples_;
  s.queue_depth = backlog_rows_;
  s.active_requests = active_requests_;
  s.running_requests = static_cast<std::int64_t>(service_.size());
  s.max_active_seen = max_active_seen_;
  s.avg_batch = batches_ > 0 ? static_cast<double>(coalesced_samples_) /
                                   static_cast<double>(batches_)
                             : 0.0;
  s.occupancy = ema_occupancy_;
  s.deadline_misses = deadline_misses_;
  s.preemptions = preemptions_;
  for (std::size_t c = 0; c < kNumPriorityClasses; ++c) {
    s.class_submitted[c] = class_submitted_[c];
    s.class_active[c] = class_active_[c];
  }
  return s;
}

std::int64_t BatchScheduler::ActiveRequestsLocked() const {
  return active_requests_;
}

void BatchScheduler::PublishLoadLocked() {
  load_active_.store(active_requests_, std::memory_order_relaxed);
  load_backlog_.store(backlog_rows_, std::memory_order_relaxed);
  load_misses_.store(deadline_misses_, std::memory_order_relaxed);
  load_completed_.store(completed_, std::memory_order_relaxed);
  load_occupancy_.store(ema_occupancy_, std::memory_order_relaxed);
}

SchedulerLoad BatchScheduler::load() const {
  SchedulerLoad l;
  l.active_requests = load_active_.load(std::memory_order_relaxed);
  l.queue_depth = load_backlog_.load(std::memory_order_relaxed);
  l.deadline_misses = load_misses_.load(std::memory_order_relaxed);
  l.completed = load_completed_.load(std::memory_order_relaxed);
  l.max_active_reqs = static_cast<std::int64_t>(options_.max_active_reqs);
  l.occupancy = load_occupancy_.load(std::memory_order_relaxed);
  // Mirror Submit's admission predicate (modulo the oversized-request
  // allowance): a closed pool is a full active set or a full backlog.
  l.admission_open =
      l.active_requests < l.max_active_reqs &&
      (l.queue_depth < static_cast<std::int64_t>(options_.queue_capacity) ||
       l.queue_depth == 0);
  return l;
}

bool BatchScheduler::NextChunk(std::size_t max_samples,
                               std::chrono::milliseconds wait,
                               WorkChunk& chunk) {
  chunk.slices.clear();
  chunk.rows = 0;
  chunk.trace_id = 0;
  chunk.trace_parent = 0;
  FLUID_CHECK_MSG(max_samples >= 1, "NextChunk: max_samples < 1");
  std::unique_lock<std::mutex> lock(mu_);
  // A non-blocking grab of an empty pool answers without a timed wait
  // (the event-driven HA loop makes one after every launch).
  if (wait.count() <= 0 && !stop_ && !HasBacklogLocked()) return false;
  if (!cv_.wait_until(lock, Clock::now() + wait,
                      [&] { return stop_ || HasBacklogLocked(); })) {
    return false;  // waited out an empty pool
  }
  if (stop_) return false;  // Stop() fails the unresolved remainder
  // Straggler window (blocking grabs only — a window refill must not
  // stall the pipeline): with fewer rows on hand than the chunk could
  // take, wait up to max_delay for more before assembling.
  if (wait.count() > 0 && options_.max_delay.count() > 0 &&
      backlog_rows_ < static_cast<std::int64_t>(max_samples)) {
    const auto coalesce_deadline = Clock::now() + options_.max_delay;
    cv_.wait_until(lock, coalesce_deadline, [&] {
      return stop_ ||
             backlog_rows_ >= static_cast<std::int64_t>(max_samples);
    });
    if (stop_) return false;
  }
  AssembleLocked(max_samples, chunk);
  if (chunk.rows == 0) return false;  // everything on hand had expired
  lock.unlock();
  space_cv_.notify_all();  // backlog rows moved into the chunk
  return true;
}

void BatchScheduler::ExpireReadyLocked(Clock::time_point now) {
  // READY requests past their deadline fail instead of wasting service;
  // the lists are deadline-ordered, so expiry is a prefix scan. (A
  // RUNNING request past its deadline finishes and delivers late — its
  // miss is counted at completion.)
  for (auto& list : ready_) {
    while (!list.empty() && list.front().deadline < now) {
      Request* req = &list.front();
      req->failed = true;
      req->error = core::Status::DeadlineExceeded(
          "BatchScheduler: request expired before any chunk could serve it");
      req->resolved_rows = req->samples;
      backlog_rows_ -= req->samples;
      ++deadline_misses_;
      FinalizeLocked(req);
    }
  }
}

void BatchScheduler::AssembleLocked(std::size_t max_samples,
                                    WorkChunk& chunk) {
  const auto now = Clock::now();
  ExpireReadyLocked(now);

  chunk.top = Priority::kLow;
  int max_cls_included = -1;
  // Only the drain thread assembles, so one scratch vector serves every
  // grab without allocating in steady state.
  thread_local std::vector<Request*> tl_cands;

  const auto max_rows = static_cast<std::int64_t>(max_samples);
  for (std::size_t cls = 0;
       cls < kNumPriorityClasses && chunk.rows < max_rows; ++cls) {
    // Candidates of this class, EDF: partially scheduled RUNNING requests
    // (mid-service, their remaining rows compete on deadline) merged with
    // the READY list.
    tl_cands.clear();
    for (auto& req : service_) {
      if (static_cast<std::size_t>(req.priority) == cls &&
          req.scheduled_rows < req.samples) {
        tl_cands.push_back(&req);
      }
    }
    for (auto& req : ready_[cls]) tl_cands.push_back(&req);
    std::stable_sort(tl_cands.begin(), tl_cands.end(),
                     [](const Request* a, const Request* b) {
                       return a->deadline < b->deadline;
                     });
    for (Request* req : tl_cands) {
      if (chunk.rows >= max_rows) break;
      const std::int64_t take =
          std::min(max_rows - chunk.rows, req->samples - req->scheduled_rows);
      chunk.slices.push_back({req, req->scheduled_rows, take});
      if (chunk.trace_id == 0 && req->trace_id != 0) {
        chunk.trace_id = req->trace_id;
        chunk.trace_parent = req->trace_parent;
      }
      if (req->scheduled_rows == 0) {
        // First rows of a READY request: admit it into RUNNING. splice()
        // moves the node without invalidating iterators or the pointer.
        service_.splice(service_.end(), ready_[cls], req->self);
        req->first_us = obs::NowUs();
        if (req->trace_id != 0) {
          auto& tracer = obs::Tracer::Global();
          tracer.Record(req->trace_id, tracer.NewSpanId(), req->trace_parent,
                        "sched.ready_wait", "sched", req->admit_us,
                        req->first_us - req->admit_us);
        }
      }
      req->scheduled_rows += take;
      backlog_rows_ -= take;
      if (chunk.rows == 0) {
        chunk.top = req->priority;
        chunk.deadline = req->deadline;
        chunk.urgent_deadline = req->deadline;
      } else {
        chunk.deadline = std::max(chunk.deadline, req->deadline);
        chunk.urgent_deadline = std::min(chunk.urgent_deadline, req->deadline);
      }
      chunk.rows += take;
      max_cls_included = static_cast<int>(cls);
    }
  }
  if (chunk.rows == 0) return;

  // Preemption accounting: the chunk filled while strictly-lower-class
  // work waited — an iteration-level scheduling decision the old
  // serve-to-completion loop could never make.
  if (chunk.rows >= max_rows && backlog_rows_ > 0) {
    bool bypassed = false;
    for (std::size_t cls = static_cast<std::size_t>(max_cls_included) + 1;
         cls < kNumPriorityClasses && !bypassed; ++cls) {
      bypassed = !ready_[cls].empty();
    }
    if (!bypassed) {
      for (const auto& req : service_) {
        if (static_cast<int>(req.priority) > max_cls_included &&
            req.scheduled_rows < req.samples) {
          bypassed = true;
          break;
        }
      }
    }
    if (bypassed) ++preemptions_;
  }

  ++batches_;
  coalesced_samples_ += chunk.rows;
  const double sample =
      static_cast<double>(active_requests_) /
      static_cast<double>(options_.max_active_reqs);
  ema_occupancy_ = ema_seeded_
                       ? kOccupancyEmaAlpha * sample +
                             (1.0 - kOccupancyEmaAlpha) * ema_occupancy_
                       : sample;
  ema_seeded_ = true;
  PublishLoadLocked();
}

void BatchScheduler::CompleteRows(const Slice& slice, std::int64_t offset,
                                  std::int64_t rows, const float* logits,
                                  std::int64_t classes,
                                  const std::string& served_by) {
  std::lock_guard<std::mutex> lock(mu_);
  ResolveRowsLocked(slice.req, slice.row0 + offset, rows, logits, classes,
                    served_by);
}

void BatchScheduler::CompleteChunk(const WorkChunk& chunk,
                                   const core::Tensor& logits,
                                   const std::string& served_by) {
  const std::int64_t classes =
      chunk.rows > 0 ? logits.numel() / chunk.rows : 0;
  FLUID_CHECK_MSG(classes * chunk.rows == logits.numel(),
                  "CompleteChunk: result rows don't divide the chunk");
  std::lock_guard<std::mutex> lock(mu_);
  const float* data = logits.data().data();
  std::int64_t row = 0;
  for (const Slice& slice : chunk.slices) {
    ResolveRowsLocked(slice.req, slice.row0, slice.rows, data + row * classes,
                      classes, served_by);
    row += slice.rows;
  }
}

void BatchScheduler::FailChunk(const WorkChunk& chunk,
                               const core::Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slice& slice : chunk.slices) {
    Request* req = slice.req;
    req->failed = true;
    if (req->error.ok()) req->error = status;
    req->resolved_rows += slice.rows;
    if (req->resolved_rows >= req->samples) FinalizeLocked(req);
  }
}

void BatchScheduler::AwaitEvent(bool want_work, Clock::time_point until) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_until(lock, until, [&] {
    return woken_ || (want_work && !stop_ && HasBacklogLocked());
  });
  woken_ = false;
}

void BatchScheduler::Wake() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    woken_ = true;
  }
  cv_.notify_one();
}

void BatchScheduler::ResolveRowsLocked(Request* req, std::int64_t row0,
                                       std::int64_t rows, const float* logits,
                                       std::int64_t classes,
                                       const std::string& served_by) {
  if (!req->failed) {
    if (req->logits.empty()) {
      // Pooled: every row is written by a CompleteRows before the tensor
      // leaves in the reply (resolved_rows accounting guards it).
      req->logits = core::AcquireTensor({req->samples, classes});
    }
    std::copy(logits, logits + rows * classes,
              req->logits.data().begin() + row0 * classes);
    if (row0 == 0) req->served_by = served_by;
  }
  req->resolved_rows += rows;
  if (req->resolved_rows >= req->samples) FinalizeLocked(req);
}

void BatchScheduler::FinalizeLocked(Request* req) {
  if (Clock::now() > req->deadline && !req->failed) {
    // Delivered, but late: the compute wasn't wasted, the SLO was.
    ++deadline_misses_;
  }
  // Latency breakdown (always-on, lock-free): queue wait is
  // submit→first chunk (requests that never got one count their whole
  // life as wait), service is first chunk→now.
  const std::int64_t end_us = obs::NowUs();
  const auto cls = static_cast<std::size_t>(req->priority);
  const std::int64_t served_at = req->first_us != 0 ? req->first_us : end_us;
  queue_wait_ms_[cls]->Record(
      static_cast<double>(served_at - req->submit_us) / 1000.0);
  if (req->first_us != 0) {
    service_ms_[cls]->Record(static_cast<double>(end_us - req->first_us) /
                             1000.0);
  }
  if (req->trace_id != 0) {
    auto& tracer = obs::Tracer::Global();
    tracer.Record(req->trace_id, tracer.NewSpanId(), req->trace_parent,
                  req->failed ? "sched.request_failed" : "sched.request",
                  "sched", req->submit_us, end_us - req->submit_us);
  }
  if (!req->input.empty()) core::RecycleTensor(std::move(req->input));
  if (req->failed) {
    if (!req->logits.empty()) core::RecycleTensor(std::move(req->logits));
    req->promise.set_value(req->error.ok()
                               ? core::Status::Internal(
                                     "BatchScheduler: request failed with no "
                                     "recorded error")
                               : req->error);
  } else {
    InferReply reply;
    reply.logits = std::move(req->logits);
    reply.served_by = std::move(req->served_by);
    req->promise.set_value(std::move(reply));
  }
  --active_requests_;
  --class_active_[static_cast<std::size_t>(req->priority)];
  ++completed_;
  // The request's list node dies here; `self` knows which list owns it
  // (READY requests finalize only on expiry/stop, RUNNING on resolution).
  if (req->scheduled_rows > 0) {
    service_.erase(req->self);
  } else {
    ready_[static_cast<std::size_t>(req->priority)].erase(req->self);
  }
  PublishLoadLocked();
  space_cv_.notify_all();  // an admission slot freed
}

void BatchScheduler::DrainLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || HasBacklogLocked(); });
      if (stop_) return;  // Stop() fails the unresolved remainder
    }
    try {
      serve_(*this);
    } catch (const std::exception& e) {
      // A serve-callback throw (bad input shape, hostile payload) must
      // fail the in-service requests, never the drain thread. Rows
      // already resolved keep their results.
      FLUID_LOG(Warn) << "BatchScheduler: serve callback threw: " << e.what();
      std::lock_guard<std::mutex> lock(mu_);
      const auto status = core::Status::Internal(
          std::string("master: serve callback threw: ") + e.what());
      while (!service_.empty()) {
        Request* req = &service_.front();
        req->failed = true;
        if (req->error.ok()) req->error = status;
        backlog_rows_ -= req->samples - req->scheduled_rows;
        req->resolved_rows = req->samples;
        FinalizeLocked(req);
      }
    }
  }
}

}  // namespace fluid::dist
