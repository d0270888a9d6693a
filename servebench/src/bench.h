#pragma once
// servebench: the repository's end-to-end serving benchmark.
//
// One process drives three named workloads through the public serving
// surface (MasterNode, RequestRouter, WorkerNode and the transports):
//
//   ht_bulk        HT mode, compute-bound: master lower-50% + worker
//                  upper-50%, free in-memory link, 1 closed-loop client
//                  sending [64,1,28,28] requests.
//   ha_burst       HA mode on the paper's 12 ms / 100 Mbit link, int8 cut
//                  frames, bursty 3-class open-loop arrivals (~950 req/s).
//   fleet_failover 2 partitions behind a RequestRouter, fp32 HA pipeline
//                  with the lower-50% slice as failover target; partition
//                  0's worker crashes at 1/3 of the arrivals and a fresh
//                  worker rejoins at 2/3.
//
// Every reply is checked against a local forward (oracle.cpp). The
// untraced pass yields the end-to-end metrics; per-layer numbers come from
// timing the calls the benchmark makes into each module, from the obs
// registry and transport counters, and from a separate traced pass
// (layers.cpp). See servebench/README.md.

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/tensor.h"
#include "dist/master.h"
#include "dist/router.h"
#include "dist/worker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "slim/fluid_model.h"
#include "train/model_zoo.h"

namespace servebench {

namespace core = fluid::core;
namespace dist = fluid::dist;
namespace nn = fluid::nn;
namespace slim = fluid::slim;

using Clock = std::chrono::steady_clock;
using ReplyFuture = std::future<core::StatusOr<dist::InferReply>>;

// ---- workloads ------------------------------------------------------------

enum class WorkloadKind { kHtBulk, kHaBurst, kFleetFailover };

struct Workload {
  WorkloadKind kind;
  const char* name;
  bool open_loop;
  double rate_rps;         // open loop: average offered rate
  double burst;            // open loop: square-wave multiplier (1 = flat)
  double burst_period_ms;  // open loop: half-period of the square wave
  std::int64_t batch;      // samples per request
};

/// nullptr for an unknown name.
const Workload* FindWorkload(std::string_view name);
const std::vector<Workload>& AllWorkloads();

/// 20/50/30 high/normal/low mix, deterministic per request index.
inline constexpr int kClassPattern[10] = {0, 1, 2, 1, 2, 1, 0, 1, 2, 1};
inline constexpr std::int64_t kSloMs[3] = {250, 1000, 4000};
inline constexpr const char* kClassNames[3] = {"high", "normal", "low"};

// ---- models and oracle ------------------------------------------------------

/// The trained-store stand-in every fleet deploys from (a seeded paper
/// model; its weights are fixed, only the inputs vary with --seed).
struct Models {
  slim::FluidNetConfig cfg;
  slim::FluidModel store = slim::FluidModel::PaperDefault(7);
  static constexpr std::int64_t kCut = 1;  // HA cut after conv stage 1
};

inline constexpr std::int64_t kNumClasses = 10;

/// Checks replies against local forwards of the same input pool.
///   fp32 paths: a row must be bitwise-equal to one of the image's allowed
///     reference rows (a slice's forward, or the front->back pipeline).
///   int8 cut frames: a row's top-1 must equal the fp32 pipeline's top-1;
///     the pool only keeps images whose fp32 top-1 margin int8 cut error
///     cannot flip.
struct Oracle {
  std::vector<core::Tensor> images;  // each [1, 1, 28, 28]
  /// allowed[i]: reference rows (kNumClasses floats each), fp32 mode.
  std::vector<std::vector<float>> allowed;
  std::vector<int> top1;  // int8 mode
  bool top1_only = false;

  bool Check(std::size_t image, const float* row) const;
};

/// Seeded input pool plus its references for `w`'s serving paths.
Oracle BuildOracle(const Workload& w, const Models& models, std::uint64_t seed,
                   std::size_t pool_size);

/// Self-test: the oracle accepts a correct row and rejects the same row
/// with one flipped logit bit. Returns 0 on success.
int OracleSelfTest();

// ---- fleets -----------------------------------------------------------------

/// One workload's serving fleet. Partition p = masters[p] + workers[p].
struct Fleet {
  std::vector<std::unique_ptr<dist::MasterNode>> masters;
  std::vector<std::unique_ptr<dist::WorkerNode>> workers;
  std::vector<std::unique_ptr<dist::WorkerNode>> crashed;
  std::unique_ptr<dist::RequestRouter> router;  // fleet_failover only
  /// Master-side wire counters of links replaced by Reattach (a master
  /// only sums its current links).
  dist::WireStats retired_wire;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { Stop(); }

  ReplyFuture Submit(core::Tensor input, const dist::SubmitOptions& opts);
  /// Wire v6 trace blocks on every worker link.
  void EnableTraceWire();
  /// Crash partition 0's worker, then run the master's heartbeat probe.
  /// Returns the probe's duration in ms.
  double CrashAndProbe();
  /// A fresh worker rejoins partition 0 over a fresh link. Returns the
  /// ReattachWorker duration in ms, or a negative value on failure.
  double Reattach(const Models& models);
  /// Router first, then masters, then workers. Idempotent.
  void Stop();
};

/// Construct, deploy and start `w`'s fleet (the span setup_s times).
std::unique_ptr<Fleet> BuildFleet(const Workload& w, const Models& models);

// ---- load and measurement ---------------------------------------------------

/// Counters read before and after the measured phase; deltas become the
/// per-layer metrics.
struct CounterSnapshot {
  dist::MasterStats master;
  dist::WireStats wire;
  std::int64_t sched_batches = 0, sched_rows = 0, sched_preemptions = 0,
               sched_misses = 0, sched_max_active = 0;
  std::int64_t worker_frames = 0, worker_samples = 0, worker_reorders = 0;
  std::int64_t router_rerouted = 0, router_failed = 0;
  std::vector<std::int64_t> partition_routed;
  std::uint64_t pool_gets = 0, pool_hits = 0;
  std::uint64_t allocs = 0, alloc_bytes = 0;
};
CounterSnapshot TakeSnapshot(const Fleet& fleet);

/// The measured phase is cut into kWindows equal windows by due time.
/// Latency and CPU metrics are per-window figures' medians, so a transient
/// stall of the shared host moves one window, not the run's result.
/// fleet_failover repeats its crash/reattach cycle in every window.
inline constexpr int kWindows = 5;

/// Unmeasured load before the measured phase: fills pools and scratch.
inline constexpr double kWarmupS = 1.0;

struct PassOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;  // record the benchmark's own spans
};

struct Window {
  std::vector<double> lat_ms[3];  // per class, OK replies due in the window
  std::int64_t images = 0;
  double cpu_s = 0;  // process CPU from this window's start to the next's
};

struct PassResult {
  // Measured requests (due inside the measured phase).
  std::int64_t attempted = 0, ok = 0, wrong = 0, failed = 0, in_slo = 0;
  std::int64_t images = 0;
  // Whole pass, warmup included: any wrong reply fails the run.
  std::int64_t wrong_total = 0, failed_total = 0;
  Window windows[kWindows];
  double span_s = 0;              // first measured due -> last completion
  std::vector<double> late_ms;    // generator lateness (open loop)
  std::vector<double> submit_us;  // InferAsync call durations
  std::vector<double> probe_ms, reattach_ms;  // one per failure cycle
  std::int64_t max_outstanding = 0;
  CounterSnapshot before, after;
  /// Registry histograms at the end of the pass, per class: scheduler
  /// queue wait, scheduler service, and pure wire time (traced replies).
  fluid::obs::Histogram::Snapshot queue_wait[3], service[3], wire[3];
  std::vector<fluid::obs::Span> spans;  // traced pass only
};

PassResult RunPass(Fleet& fleet, const Workload& w, const Oracle& oracle,
                   const Models& models, const PassOptions& opts);

/// Stack pool images into one pooled [n, 1, 28, 28] request input.
core::Tensor MakeInput(const Oracle& oracle,
                       const std::vector<std::uint32_t>& images);
/// Every row of a reply checked against the image it was built from.
bool VerifyReply(const Oracle& oracle, const core::Tensor& logits,
                 const std::vector<std::uint32_t>& images);

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Linear-interpolated quantile of unsorted samples (0 when empty).
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Process user+sys CPU seconds.
double CpuSeconds();

MetricList EndToEndMetrics(const PassResult& r, double setup_s);

/// Everything the per-layer table needs: the untraced pass's counters and
/// registry reads, the traced pass's spans, and the micro-timed calls.
MetricList PerLayerMetrics(const Workload& w, const Models& models,
                           const PassResult& untraced,
                           const PassResult& traced);

}  // namespace servebench
