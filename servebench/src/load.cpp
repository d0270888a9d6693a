// Load generation and measurement.
//
// Closed loop (ht_bulk): one client submits, waits, verifies, repeats.
// Open loop (ha_burst, fleet_failover): a seeded arrival schedule is fixed
// up front; the generator thread sleeps to each due time and submits,
// nothing else. Latency runs from the due time, so a stalled generator
// shows up as latency, and the generator's own lateness is reported.
// Replies are collected by a pool of waiter threads, each blocked on one
// future: a completion wakes exactly the thread that owns it (no polling,
// so cpu_us_per_img measures the program), and the pool grows whenever
// every waiter is busy, so out-of-order completions are stamped on time.
// Counter scrapes and the failure schedule (Crash, ProbeWorkers,
// ReattachWorker) run on a control thread, off the generator.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "core/alloc_count.h"
#include "core/buffer_pool.h"
#include "core/rng.h"

namespace servebench {
namespace {

namespace obs = fluid::obs;

std::int64_t ToUs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t.time_since_epoch())
      .count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Everything a measured reply contributes, merged under one lock.
struct Tally {
  std::mutex mu;
  PassResult* r = nullptr;
  Clock::time_point measure_start{};
  Clock::time_point last_completion{};

  /// `window` is the measured window the request was due in, -1 for
  /// warmup.
  void Add(int window, bool ok, bool correct, int cls, double lat_ms,
           std::int64_t images, Clock::time_point done) {
    std::lock_guard<std::mutex> lock(mu);
    if (!ok) ++r->failed_total;
    if (ok && !correct) ++r->wrong_total;
    if (window < 0) return;
    ++r->attempted;
    if (!ok) {
      ++r->failed;
      return;
    }
    if (!correct) {
      ++r->wrong;
      return;
    }
    ++r->ok;
    r->images += images;
    Window& w = r->windows[window];
    w.images += images;
    w.lat_ms[cls].push_back(lat_ms);
    if (lat_ms <= static_cast<double>(kSloMs[cls])) ++r->in_slo;
    last_completion = std::max(last_completion, done);
  }
};

/// Window of a measured request due `since_start_s` into the phase.
int WindowOf(double since_start_s, double seconds) {
  const auto w = static_cast<int>(since_start_s / seconds * kWindows);
  return std::clamp(w, 0, kWindows - 1);
}

}  // namespace

bool VerifyReply(const Oracle& oracle, const core::Tensor& logits,
                 const std::vector<std::uint32_t>& images) {
  const auto rows = static_cast<std::int64_t>(images.size());
  if (logits.shape().rank() != 2 || logits.shape()[0] != rows ||
      logits.shape()[1] != kNumClasses) {
    return false;
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    if (!oracle.Check(images[static_cast<std::size_t>(i)],
                      logits.data().data() + i * kNumClasses)) {
      return false;
    }
  }
  return true;
}

core::Tensor MakeInput(const Oracle& oracle,
                       const std::vector<std::uint32_t>& images) {
  const core::Tensor& first = oracle.images[images[0]];
  const std::int64_t per = first.numel();
  core::Tensor x = core::AcquireTensor(
      {static_cast<std::int64_t>(images.size()), first.shape()[1],
       first.shape()[2], first.shape()[3]});
  for (std::size_t i = 0; i < images.size(); ++i) {
    std::copy_n(oracle.images[images[i]].data().begin(), per,
                x.data().begin() + static_cast<std::int64_t>(i) * per);
  }
  return x;
}

namespace {

/// Traced pass: trace ids plus the benchmark's own spans around submit.
struct TraceCtx {
  std::uint64_t trace_id = 0, request_span = 0, submit_span = 0;

  static TraceCtx Start(bool traced, dist::SubmitOptions& so) {
    TraceCtx t;
    if (!traced) return t;
    auto& tracer = obs::Tracer::Global();
    t.trace_id = tracer.MaybeStartTrace();
    t.request_span = tracer.NewSpanId();
    t.submit_span = tracer.NewSpanId();
    so.trace_id = t.trace_id;
    so.trace_parent = t.submit_span;
    return t;
  }
  void Submitted(std::int64_t start_us, std::int64_t end_us) const {
    if (trace_id == 0) return;
    obs::Tracer::Global().Record(trace_id, submit_span, request_span,
                                 "bench.submit", "bench", start_us,
                                 end_us - start_us);
  }
  void Replied(Clock::time_point due, Clock::time_point done) const {
    if (trace_id == 0) return;
    obs::Tracer::Global().Record(trace_id, request_span, 0, "bench.request",
                                 "bench", ToUs(due), ToUs(done) - ToUs(due));
  }
};

/// Polls the tracer's ring into a growing span list (traced pass only;
/// the ring holds 8192 spans, a few hundred ms of traced traffic).
class SpanScraper {
 public:
  explicit SpanScraper(bool on) {
    if (on) thread_ = std::thread([this] { Loop(); });
  }
  ~SpanScraper() { Stop(); }
  SpanScraper(const SpanScraper&) = delete;
  SpanScraper& operator=(const SpanScraper&) = delete;

  std::vector<obs::Span> Stop() {
    if (thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
      }
      cv_.notify_one();
      thread_.join();
      Scrape();
    }
    return std::move(spans_);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [&] { return stop_; })) {
      Scrape();
    }
  }
  void Scrape() {
    for (const obs::Span& s : obs::Tracer::Global().Snapshot()) {
      if (seen_.insert(s.span_id).second) spans_.push_back(s);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::unordered_set<std::uint64_t> seen_;
  std::vector<obs::Span> spans_;
  std::thread thread_;
};

// ---- open loop ----------------------------------------------------------------

struct Arrival {
  double due_s;
  int cls;
  std::uint32_t image;
  int window;  // -1: warmup
};

/// Seeded Poisson arrivals, optionally modulated by a square wave: the
/// first half of every period runs at burst x rate, the second half at
/// (2 - burst) x rate, so the average stays `rate`.
std::vector<Arrival> MakeSchedule(const Workload& w, std::uint64_t seed,
                                  double warmup_s, double seconds,
                                  std::size_t pool) {
  core::Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
  std::vector<Arrival> out;
  double t = 0.0;
  for (std::size_t i = 0;; ++i) {
    double mult = 1.0;
    if (w.burst != 1.0) {
      const double phase = std::fmod(t * 1000.0, 2.0 * w.burst_period_ms);
      mult = phase < w.burst_period_ms ? w.burst : std::max(0.1, 2.0 - w.burst);
    }
    t += -std::log(1.0 - rng.Uniform()) / (w.rate_rps * mult);
    if (t >= warmup_s + seconds) break;
    out.push_back({t, kClassPattern[i % 10],
                   static_cast<std::uint32_t>(rng.UniformInt(pool)),
                   t >= warmup_s ? WindowOf(t - warmup_s, seconds) : -1});
  }
  return out;
}

/// Per-window CPU: stamps taken as each window opens, plus one at the end.
class WindowCpu {
 public:
  void Enter(int window) {
    if (window <= opened_) return;
    const double now = CpuSeconds();
    while (opened_ < window) stamps_[++opened_] = now;
  }
  void Close(PassResult& r) {
    Enter(kWindows);
    for (int w = 0; w < kWindows; ++w) {
      r.windows[w].cpu_s = stamps_[w + 1] - stamps_[w];
    }
  }

 private:
  int opened_ = -1;
  double stamps_[kWindows + 1] = {};
};

struct Outstanding {
  ReplyFuture future;
  Clock::time_point due;
  int cls = 0;
  std::uint32_t image = 0;
  int window = -1;
  TraceCtx trace;
};

/// Waiter pool: one blocked thread per outstanding request.
class Collector {
 public:
  Collector(const Oracle& oracle, Tally& tally) : oracle_(oracle), tally_(tally) {}
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Outstanding o) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(o));
    ++outstanding_;
    max_outstanding_ = std::max(max_outstanding_, outstanding_);
    // Items not yet claimed must never outnumber idle waiters, or a reply
    // would sit unobserved behind another request's.
    if (static_cast<std::int64_t>(queue_.size()) > idle_) {
      threads_.emplace_back([this] { Loop(); });
    }
    cv_.notify_one();
  }

  /// Wait for every pushed request to resolve; join the waiters.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  std::int64_t max_outstanding() const { return max_outstanding_; }

 private:
  void Loop() {
    for (;;) {
      Outstanding o;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ++idle_;
        cv_.wait(lock, [&] { return !queue_.empty() || done_; });
        --idle_;
        if (queue_.empty()) return;
        o = std::move(queue_.front());
        queue_.pop_front();
      }
      auto reply = o.future.get();
      const auto done = Clock::now();
      bool correct = false;
      if (reply.ok()) {
        correct = VerifyReply(oracle_, reply->logits, {o.image});
        core::RecycleTensor(std::move(reply->logits));
      }
      o.trace.Replied(o.due, done);
      tally_.Add(o.window, reply.ok(), correct, o.cls, MsBetween(o.due, done), 1,
                 done);
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
    }
  }

  const Oracle& oracle_;
  Tally& tally_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Outstanding> queue_;
  std::int64_t idle_ = 0;
  std::int64_t outstanding_ = 0;
  std::int64_t max_outstanding_ = 0;
  bool done_ = false;
  std::vector<std::thread> threads_;
};

/// Control-plane events the generator hands off (it never blocks on them).
enum class Event { kMeasureStart, kCrash, kReattach };

class ControlThread {
 public:
  ControlThread(Fleet& fleet, const Models& models, PassResult& r)
      : fleet_(fleet), models_(models), r_(r), thread_([this] { Loop(); }) {}
  ~ControlThread() { Join(); }
  ControlThread(const ControlThread&) = delete;
  ControlThread& operator=(const ControlThread&) = delete;

  void Post(Event e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      events_.push_back(e);
    }
    cv_.notify_one();
  }
  void Join() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void Loop() {
    for (;;) {
      Event e;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !events_.empty(); });
        if (events_.empty()) return;
        e = events_.front();
        events_.pop_front();
      }
      switch (e) {
        case Event::kMeasureStart:
          fluid::obs::MetricsRegistry::Global().Reset();
          r_.before = TakeSnapshot(fleet_);
          break;
        case Event::kCrash:
          r_.probe_ms.push_back(fleet_.CrashAndProbe());
          break;
        case Event::kReattach:
          r_.reattach_ms.push_back(fleet_.Reattach(models_));
          break;
      }
    }
  }

  Fleet& fleet_;
  const Models& models_;
  PassResult& r_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Event> events_;
  bool stop_ = false;
  std::thread thread_;  // last: the loop uses every member above
};

void RunOpenLoop(Fleet& fleet, const Workload& w, const Oracle& oracle,
                 const Models& models, const PassOptions& opts, PassResult& r) {
  const std::vector<Arrival> schedule = MakeSchedule(
      w, opts.seed, kWarmupS, opts.seconds, oracle.images.size());
  // fleet_failover: each window crashes partition 0's worker when a third
  // of its arrivals are sent and reattaches a fresh one at two thirds.
  std::int64_t per_window[kWindows] = {};
  for (const Arrival& a : schedule) {
    if (a.window >= 0) ++per_window[a.window];
  }
  const bool failover = w.kind == WorkloadKind::kFleetFailover;

  Tally tally;
  tally.r = &r;
  Collector collector(oracle, tally);
  ControlThread control(fleet, models, r);
  WindowCpu cpu;

  int window = -1;
  std::int64_t sent_in_window = 0;
  const auto t0 = Clock::now();
  for (const Arrival& a : schedule) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(a.due_s));
    std::this_thread::sleep_until(due);
    if (a.window != window) {
      if (window < 0) {
        tally.measure_start = due;
        control.Post(Event::kMeasureStart);
      }
      cpu.Enter(a.window);
      window = a.window;
      sent_in_window = 0;
    }
    if (failover && window >= 0) {
      if (sent_in_window == per_window[window] / 3) control.Post(Event::kCrash);
      if (sent_in_window == 2 * per_window[window] / 3) {
        control.Post(Event::kReattach);
      }
    }
    dist::SubmitOptions so;
    so.priority = static_cast<dist::Priority>(a.cls);
    so.timeout = std::chrono::milliseconds(kSloMs[a.cls]);
    Outstanding o;
    o.trace = TraceCtx::Start(opts.traced, so);
    const auto s0 = Clock::now();
    o.future = fleet.Submit(MakeInput(oracle, {a.image}), so);
    const auto s1 = Clock::now();
    o.trace.Submitted(ToUs(s0), ToUs(s1));
    if (window >= 0) {
      r.late_ms.push_back(MsBetween(due, s0));
      r.submit_us.push_back(MsBetween(s0, s1) * 1000.0);
      ++sent_in_window;
    }
    o.due = due;
    o.cls = a.cls;
    o.image = a.image;
    o.window = window;
    collector.Push(std::move(o));
  }
  collector.Finish();
  cpu.Close(r);
  control.Join();
  r.span_s = std::max(0.0, std::chrono::duration<double>(
                               tally.last_completion - tally.measure_start)
                               .count());
  r.max_outstanding = collector.max_outstanding();
}

// ---- closed loop -------------------------------------------------------------

void RunClosedLoop(Fleet& fleet, const Workload& w, const Oracle& oracle,
                   const PassOptions& opts, PassResult& r) {
  Tally tally;
  tally.r = &r;
  core::Rng rng(opts.seed * 0xD1B54A32D192ED03ULL + 9);
  std::vector<std::uint32_t> images(static_cast<std::size_t>(w.batch));
  auto one_request = [&](std::size_t i, int window) {
    for (auto& img : images) {
      img = static_cast<std::uint32_t>(rng.UniformInt(oracle.images.size()));
    }
    const int cls = kClassPattern[i % 10];
    dist::SubmitOptions so;
    so.priority = static_cast<dist::Priority>(cls);
    so.timeout = std::chrono::milliseconds(kSloMs[cls]);
    const TraceCtx trace = TraceCtx::Start(opts.traced, so);
    core::Tensor x = MakeInput(oracle, images);
    const auto s0 = Clock::now();
    ReplyFuture fut = fleet.Submit(std::move(x), so);
    const auto s1 = Clock::now();
    trace.Submitted(ToUs(s0), ToUs(s1));
    auto reply = fut.get();
    const auto done = Clock::now();
    bool correct = false;
    if (reply.ok()) {
      correct = VerifyReply(oracle, reply->logits, images);
      core::RecycleTensor(std::move(reply->logits));
    }
    trace.Replied(s0, done);
    if (window >= 0) r.submit_us.push_back(MsBetween(s0, s1) * 1000.0);
    tally.Add(window, reply.ok(), correct, cls, MsBetween(s0, done),
              static_cast<std::int64_t>(images.size()), done);
  };

  std::size_t i = 0;
  const auto warm_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupS));
  while (Clock::now() < warm_end) one_request(i++, -1);

  fluid::obs::MetricsRegistry::Global().Reset();
  r.before = TakeSnapshot(fleet);
  WindowCpu cpu;
  const auto t0 = Clock::now();
  for (;;) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (elapsed >= opts.seconds) break;
    const int window = WindowOf(elapsed, opts.seconds);
    cpu.Enter(window);
    one_request(i++, window);
  }
  cpu.Close(r);
  r.span_s = std::max(
      0.0, std::chrono::duration<double>(tally.last_completion - t0).count());
  r.max_outstanding = 1;
}

fluid::obs::Histogram::Snapshot ReadHistogram(const char* family, int cls) {
  const fluid::obs::Histogram* h =
      fluid::obs::MetricsRegistry::Global().FindHistogram(
          std::string(family) + "{class=\"" + kClassNames[cls] + "\"}");
  return h != nullptr ? h->Snap() : fluid::obs::Histogram::Snapshot{};
}

}  // namespace

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

CounterSnapshot TakeSnapshot(const Fleet& fleet) {
  CounterSnapshot s;
  for (const auto& m : fleet.masters) {
    const dist::MasterStats st = m->stats();
    s.master.served_local += st.served_local;
    s.master.served_remote += st.served_remote;
    s.master.served_pipeline += st.served_pipeline;
    s.master.failovers += st.failovers;
    s.master.stale_replies += st.stale_replies;
    s.master.quant_cut_frames += st.quant_cut_frames;
    s.wire += m->wire_stats();
    const dist::SchedulerStats ss = m->scheduler_stats();
    s.sched_batches += ss.batches;
    s.sched_rows += ss.coalesced_samples;
    s.sched_preemptions += ss.preemptions;
    s.sched_misses += ss.deadline_misses;
    s.sched_max_active = std::max(s.sched_max_active, ss.max_active_seen);
  }
  s.wire += fleet.retired_wire;
  for (const auto* list : {&fleet.workers, &fleet.crashed}) {
    for (const auto& w : *list) {
      s.worker_frames += w->served();
      s.worker_samples += w->samples_served();
      s.worker_reorders += w->priority_reorders();
    }
  }
  if (fleet.router) {
    const dist::RouterStats rs = fleet.router->stats();
    s.router_rerouted = rs.rerouted_reqs;
    s.router_failed = rs.failed_reqs;
    for (const auto& p : rs.partitions) s.partition_routed.push_back(p.routed);
  }
  const core::PoolStats pool = core::PoolStatsSnapshot();
  s.pool_gets = pool.gets;
  s.pool_hits = pool.hits;
  s.allocs = core::AllocCount();
  s.alloc_bytes = core::AllocBytes();
  return s;
}

PassResult RunPass(Fleet& fleet, const Workload& w, const Oracle& oracle,
                   const Models& models, const PassOptions& opts) {
  auto& tracer = fluid::obs::Tracer::Global();
  PassResult r;
  if (opts.traced) {
    tracer.Clear();
    tracer.SetSampleEvery(1);
    fleet.EnableTraceWire();
  }
  SpanScraper scraper(opts.traced);
  if (w.open_loop) {
    RunOpenLoop(fleet, w, oracle, models, opts, r);
  } else {
    RunClosedLoop(fleet, w, oracle, opts, r);
  }
  r.after = TakeSnapshot(fleet);
  r.spans = scraper.Stop();
  tracer.SetSampleEvery(0);
  for (int c = 0; c < 3; ++c) {
    r.queue_wait[c] = ReadHistogram("fluid_sched_queue_wait_ms", c);
    r.service[c] = ReadHistogram("fluid_sched_service_ms", c);
    r.wire[c] = ReadHistogram("fluid_wire_ms", c);
  }
  return r;
}

}  // namespace servebench
