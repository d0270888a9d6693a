// Metric tables: end-to-end (untraced pass) and per-layer (counters and
// registry reads of the untraced pass, spans of the traced pass, and
// micro-timed calls into each module's public functions).

#include <algorithm>
#include <map>
#include <unordered_map>

#include "bench.h"
#include "core/buffer_pool.h"
#include "core/rng.h"
#include "dist/message.h"
#include "quant/quantize.h"

namespace servebench {
namespace {

namespace obs = fluid::obs;

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Median over the measured windows of each window's latency quantile,
/// for one class or (cls < 0) all of them.
double WindowedQuantile(const PassResult& r, int cls, double q) {
  std::vector<double> per_window;
  for (const Window& w : r.windows) {
    std::vector<double> v;
    for (int c = 0; c < 3; ++c) {
      if (cls < 0 || c == cls) v.insert(v.end(), w.lat_ms[c].begin(), w.lat_ms[c].end());
    }
    if (!v.empty()) per_window.push_back(Quantile(std::move(v), q));
  }
  return Median(std::move(per_window));
}

double CpuUsPerImage(const PassResult& r) {
  std::vector<double> per_window;
  for (const Window& w : r.windows) {
    if (w.images > 0) {
      per_window.push_back(w.cpu_s * 1e6 / static_cast<double>(w.images));
    }
  }
  return Median(std::move(per_window));
}

/// Median per-call microseconds of `call` (which returns the µs it timed),
/// over at least 30 calls and 0.15 s.
template <typename Fn>
double MedianCallUs(Fn&& call) {
  std::vector<double> us;
  const auto until = Clock::now() + std::chrono::milliseconds(150);
  while (us.size() < 30 || Clock::now() < until) us.push_back(call());
  return Median(std::move(us));
}

template <typename Fn>
double TimedUs(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double ForwardUs(nn::Sequential& model, const core::Tensor& input) {
  return MedianCallUs([&] {
    core::Tensor x = core::AcquireTensorCopy(input);
    core::Tensor out;
    const double us = TimedUs([&] { out = model.ForwardInference(std::move(x)); });
    core::RecycleTensor(std::move(out));
    return us;
  });
}

double EncodeUs(const dist::Message& msg) {
  std::vector<std::uint8_t> buf;
  return MedianCallUs([&] { return TimedUs([&] { dist::EncodeMessageInto(msg, buf); }); });
}

double DecodeUs(const dist::Message& msg) {
  const std::vector<std::uint8_t> bytes = dist::EncodeMessage(msg);
  return MedianCallUs([&] {
    dist::Message out;
    const double us = TimedUs([&] {
      if (!dist::DecodeMessage(bytes, out).ok()) {
        throw core::Error("servebench: decode of a fresh encode failed");
      }
    });
    dist::RecycleMessage(std::move(out));
    return us;
  });
}

/// nn, slim, quant and wire micro timings at the shapes the workloads
/// serve: 32-row slice shards (ht_bulk's 64-row requests split over two
/// devices) and 8-row HA chunks cut after stage 1.
void AddMicroTimings(const Models& m, MetricList& out) {
  const auto& family = m.store.family();
  const auto lower_spec = family.MasterResident();
  const auto upper_spec = family.WorkerResident();
  const auto combined = family.Combined();
  nn::Sequential lower = m.store.ExtractSubnet(lower_spec);
  nn::Sequential upper = m.store.ExtractSubnet(upper_spec);
  nn::Sequential full = m.store.ExtractSubnet(combined);
  auto halves = fluid::train::SplitConvNet(m.cfg, combined.range.width(), full,
                                           Models::kCut);

  core::Rng rng(99);
  const core::Tensor b32 = core::Tensor::UniformRandom({32, 1, 28, 28}, rng, 0, 1);
  const core::Tensor b8 = core::Tensor::UniformRandom({8, 1, 28, 28}, rng, 0, 1);
  const core::Tensor cut8 = halves.front.Forward(b8, false);

  const std::int64_t s = m.cfg.image_size;
  const double front_flops = static_cast<double>(m.store.conv(0).SliceFlops(
      {0, m.cfg.image_channels}, combined.range, s, s));
  const double back_flops =
      static_cast<double>(m.store.SubnetFlops(combined)) - front_flops;

  struct Fwd {
    const char* name;
    nn::Sequential* model;
    const core::Tensor* input;
    double flops_per_sample;
  };
  const Fwd fwds[] = {
      {"lower50_b32", &lower, &b32,
       static_cast<double>(m.store.SubnetFlops(lower_spec))},
      {"upper50_b32", &upper, &b32,
       static_cast<double>(m.store.SubnetFlops(upper_spec))},
      {"ha_front_b8", &halves.front, &b8, front_flops},
      {"ha_back_b8", &halves.back, &cut8, back_flops},
  };
  for (const Fwd& f : fwds) {
    const double us = ForwardUs(*f.model, *f.input);
    const double flops =
        f.flops_per_sample * static_cast<double>(f.input->shape()[0]);
    out.push_back({std::string("nn.fwd_us.") + f.name, us, "us"});
    out.push_back({std::string("nn.gflops.") + f.name, Ratio(flops, us * 1e3),
                   "GF/s"});
  }

  const fluid::quant::QuantizedTensor q8 = fluid::quant::QuantizeTensor(cut8);
  out.push_back({"quant.cut_quantize_us_b8", MedianCallUs([&] {
                   fluid::quant::QuantizedTensor q;
                   return TimedUs([&] { q = fluid::quant::QuantizeTensor(cut8); });
                 }),
                 "us"});
  out.push_back({"quant.cut_dequant_us_b8", MedianCallUs([&] {
                   core::Tensor t;
                   return TimedUs([&] { t = fluid::quant::DequantizeTensor(q8); });
                 }),
                 "us"});

  const std::vector<std::pair<const char*, dist::Message>> frames = {
      {"cut_int8",
       dist::Message::WithQuantBatch(dist::MsgType::kInfer, 1, "back", q8)},
      {"cut_fp32", dist::Message::WithBatch(dist::MsgType::kInfer, 1, "back",
                                            cut8.Clone())},
      {"shard_fp32", dist::Message::WithBatch(dist::MsgType::kInfer, 1,
                                              "upper50", b32.Clone())},
  };
  for (const auto& [name, msg] : frames) {
    out.push_back({std::string("wire.encode_us.") + name, EncodeUs(msg), "us"});
    out.push_back({std::string("wire.decode_us.") + name, DecodeUs(msg), "us"});
  }
}

// ---- traced pass ---------------------------------------------------------------

/// Serve-path stages in request order. Their p50 self times should add up
/// to the end-to-end p50; the remainder is reported as trace.residue_ms.
constexpr const char* kStages[] = {
    "bench.submit", "router.dispatch", "sched.admission", "sched.ready_wait",
    "master.chunk", "wire",            "worker.service",  "bench.reply",
};

/// Self time of every span (its duration minus the part its children
/// cover), grouped by name, in ms. Roots other than bench.request (the
/// router records router.dispatch with no parent) hang under the
/// benchmark's submit span when it encloses them, else under the request.
/// "bench.reply" is derived: from the scheduler resolving the request to
/// the benchmark holding its reply.
std::map<std::string, std::vector<double>> SelfTimes(
    const std::vector<obs::Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const obs::Span*>> by_trace;
  for (const obs::Span& s : spans) by_trace[s.trace_id].push_back(&s);

  std::map<std::string, std::vector<double>> self;
  for (auto& [id, list] : by_trace) {
    const obs::Span* request = nullptr;
    const obs::Span* submit = nullptr;
    std::int64_t resolved_us = -1;
    for (const obs::Span* s : list) {
      const std::string_view name = s->name;
      if (name == "bench.request") request = s;
      if (name == "bench.submit") submit = s;
      if (name == "sched.request" || name == "sched.request_failed") {
        resolved_us = std::max(resolved_us, s->start_us + s->dur_us);
      }
    }
    std::unordered_map<std::uint64_t, std::vector<const obs::Span*>> children;
    for (const obs::Span* s : list) {
      std::uint64_t parent = s->parent_id;
      if (parent == 0 && s != request) {
        const bool in_submit = submit != nullptr &&
                               s->start_us >= submit->start_us &&
                               s->start_us <= submit->start_us + submit->dur_us;
        parent = in_submit ? submit->span_id
                           : (request != nullptr ? request->span_id : 0);
      }
      if (parent != 0) children[parent].push_back(s);
    }
    for (const obs::Span* s : list) {
      const std::int64_t lo = s->start_us, hi = s->start_us + s->dur_us;
      std::vector<std::pair<std::int64_t, std::int64_t>> cover;
      for (const obs::Span* c : children[s->span_id]) {
        const std::int64_t a = std::max(lo, c->start_us);
        const std::int64_t b = std::min(hi, c->start_us + c->dur_us);
        if (a < b) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      std::int64_t covered = 0, end = lo;
      for (const auto& [a, b] : cover) {
        if (b <= end) continue;
        covered += b - std::max(a, end);
        end = b;
      }
      self[s->name].push_back(static_cast<double>(s->dur_us - covered) / 1e3);
    }
    if (request != nullptr && resolved_us >= 0) {
      self["bench.reply"].push_back(
          static_cast<double>(request->start_us + request->dur_us - resolved_us) /
          1e3);
    }
  }
  return self;
}

obs::Histogram::Snapshot Merge(const obs::Histogram::Snapshot (&h)[3]) {
  obs::Histogram::Snapshot m;
  m.buckets.assign(obs::Histogram::kBuckets, 0);
  for (const auto& s : h) {
    m.count += s.count;
    m.sum += s.sum;
    m.max = std::max(m.max, s.max);
    for (std::size_t i = 0; i < s.buckets.size() && i < m.buckets.size(); ++i) {
      m.buckets[i] += s.buckets[i];
    }
  }
  return m;
}

}  // namespace

MetricList EndToEndMetrics(const PassResult& r, double setup_s) {
  MetricList out = {
      {"throughput_img_s", Ratio(static_cast<double>(r.images), r.span_s), "img/s"},
      {"achieved_rps", Ratio(static_cast<double>(r.ok), r.span_s), "req/s"},
      {"p50_ms", WindowedQuantile(r, -1, 0.50), "ms"},
      {"p99_ms", WindowedQuantile(r, -1, 0.99), "ms"},
  };
  for (int c = 0; c < 3; ++c) {
    out.push_back({std::string(kClassNames[c]) + "_p50_ms",
                   WindowedQuantile(r, c, 0.50), "ms"});
    out.push_back({std::string(kClassNames[c]) + "_p99_ms",
                   WindowedQuantile(r, c, 0.99), "ms"});
  }
  out.push_back({"slo_attainment",
                 Ratio(static_cast<double>(r.in_slo),
                       static_cast<double>(r.attempted)),
                 "ratio"});
  out.push_back({"cpu_us_per_img", CpuUsPerImage(r), "us"});
  out.push_back({"setup_s", setup_s, "s"});
  return out;
}

MetricList PerLayerMetrics(const Workload& w, const Models& models,
                           const PassResult& u, const PassResult& t) {
  MetricList out;
  AddMicroTimings(models, out);

  const CounterSnapshot& a = u.before;
  const CounterSnapshot& b = u.after;
  const auto d = [](auto after, auto before) {
    return static_cast<double>(after) - static_cast<double>(before);
  };
  const double images = static_cast<double>(u.images);

  // core: buffer pool and heap over the measured phase.
  out.push_back({"core.pool_hit_ratio",
                 Ratio(d(b.pool_hits, a.pool_hits), d(b.pool_gets, a.pool_gets)),
                 "ratio"});
  out.push_back({"core.allocs_per_img", Ratio(d(b.allocs, a.allocs), images),
                 "count"});
  out.push_back({"core.alloc_bytes_per_img",
                 Ratio(d(b.alloc_bytes, a.alloc_bytes), images), "B"});

  out.push_back({"quant.cut_frames_per_img",
                 Ratio(d(b.master.quant_cut_frames, a.master.quant_cut_frames),
                       images),
                 "count"});

  // dist/message: master-side wire counters.
  out.push_back({"wire.bytes_per_img",
                 Ratio(d(b.wire.bytes_sent + b.wire.bytes_recv,
                         a.wire.bytes_sent + a.wire.bytes_recv),
                       images),
                 "B"});
  out.push_back({"wire.frames_per_img",
                 Ratio(d(b.wire.frames_sent + b.wire.frames_recv,
                         a.wire.frames_sent + a.wire.frames_recv),
                       images),
                 "count"});
  out.push_back({"wire.batched_send_ratio",
                 Ratio(d(b.wire.batched_sends, a.wire.batched_sends),
                       d(b.wire.frames_sent, a.wire.frames_sent)),
                 "ratio"});

  // dist/transport: pure link time of traced replies.
  const obs::Histogram::Snapshot wire = Merge(t.wire);
  out.push_back({"link.wire_ms.p50", wire.Quantile(0.50), "ms"});
  out.push_back({"link.wire_ms.p99", wire.Quantile(0.99), "ms"});

  // dist/serving_queue: registry histograms plus scheduler counters.
  for (int c = 0; c < 3; ++c) {
    const std::string cls = kClassNames[c];
    out.push_back({"sched.queue_wait_ms." + cls + ".p50",
                   u.queue_wait[c].Quantile(0.50), "ms"});
    out.push_back({"sched.queue_wait_ms." + cls + ".p99",
                   u.queue_wait[c].Quantile(0.99), "ms"});
    out.push_back({"sched.service_ms." + cls + ".p50",
                   u.service[c].Quantile(0.50), "ms"});
    out.push_back({"sched.service_ms." + cls + ".p99",
                   u.service[c].Quantile(0.99), "ms"});
  }
  out.push_back({"sched.rows_per_chunk",
                 Ratio(d(b.sched_rows, a.sched_rows),
                       d(b.sched_batches, a.sched_batches)),
                 "count"});
  out.push_back({"sched.preemptions", d(b.sched_preemptions, a.sched_preemptions),
                 "count"});
  out.push_back({"sched.deadline_misses", d(b.sched_misses, a.sched_misses),
                 "count"});
  out.push_back({"sched.max_active", static_cast<double>(b.sched_max_active),
                 "count"});

  // dist/master. The benchmark calls MasterNode::InferAsync itself except
  // behind the router; served_local is a failover share only in HA mode.
  const bool routed = w.kind == WorkloadKind::kFleetFailover;
  out.push_back({"master.submit_us.p50",
                 routed ? 0.0 : Quantile(u.submit_us, 0.50), "us"});
  out.push_back({"master.submit_us.p99",
                 routed ? 0.0 : Quantile(u.submit_us, 0.99), "us"});
  out.push_back({"master.failovers", d(b.master.failovers, a.master.failovers),
                 "count"});
  out.push_back({"master.stale_replies",
                 d(b.master.stale_replies, a.master.stale_replies), "count"});
  const double served =
      d(b.master.served_local + b.master.served_remote + b.master.served_pipeline,
        a.master.served_local + a.master.served_remote + a.master.served_pipeline);
  out.push_back({"master.degraded_ratio",
                 w.kind == WorkloadKind::kHtBulk
                     ? 0.0
                     : Ratio(d(b.master.served_local, a.master.served_local),
                             served),
                 "ratio"});
  out.push_back({"master.probe_ms", Median(u.probe_ms), "ms"});
  out.push_back({"master.reattach_ms", Median(u.reattach_ms), "ms"});

  // dist/worker.
  out.push_back({"worker.samples_per_frame",
                 Ratio(d(b.worker_samples, a.worker_samples),
                       d(b.worker_frames, a.worker_frames)),
                 "count"});
  out.push_back({"worker.priority_reorders",
                 d(b.worker_reorders, a.worker_reorders), "count"});

  // dist/router.
  double max_share = 0.0, routed_total = 0.0;
  for (std::size_t p = 0; p < b.partition_routed.size(); ++p) {
    routed_total += d(b.partition_routed[p],
                      p < a.partition_routed.size() ? a.partition_routed[p] : 0);
  }
  for (std::size_t p = 0; p < b.partition_routed.size(); ++p) {
    max_share = std::max(
        max_share,
        Ratio(d(b.partition_routed[p],
                p < a.partition_routed.size() ? a.partition_routed[p] : 0),
              routed_total));
  }
  out.push_back({"router.dispatch_us.p50",
                 routed ? Quantile(u.submit_us, 0.50) : 0.0, "us"});
  out.push_back({"router.dispatch_us.p99",
                 routed ? Quantile(u.submit_us, 0.99) : 0.0, "us"});
  out.push_back({"router.max_partition_share", max_share, "ratio"});
  out.push_back({"router.rerouted", d(b.router_rerouted, a.router_rerouted),
                 "count"});
  out.push_back({"router.failed", d(b.router_failed, a.router_failed), "count"});

  // obs: self times of the traced pass, the closure residue, the overhead.
  const auto self = SelfTimes(t.spans);
  double stage_sum = 0.0;
  for (const char* stage : kStages) {
    const auto it = self.find(stage);
    const std::vector<double> none;
    const std::vector<double>& v = it != self.end() ? it->second : none;
    const double p50 = Quantile(v, 0.50);
    stage_sum += p50;
    out.push_back({std::string("trace.self_ms.") + stage + ".p50", p50, "ms"});
    out.push_back({std::string("trace.self_ms.") + stage + ".p99",
                   Quantile(v, 0.99), "ms"});
  }
  const double traced_p50 = WindowedQuantile(t, -1, 0.50);
  const double untraced_p50 = WindowedQuantile(u, -1, 0.50);
  out.push_back({"trace.residue_ms", traced_p50 - stage_sum, "ms"});
  out.push_back({"trace.overhead_pct",
                 100.0 * Ratio(traced_p50 - untraced_p50, untraced_p50), "%"});
  out.push_back({"trace.cpu_overhead_pct",
                 100.0 * Ratio(CpuUsPerImage(t) - CpuUsPerImage(u),
                               CpuUsPerImage(u)),
                 "%"});

  // harness validity: how late the open-loop generator ran.
  out.push_back({"gen.late_p99_ms", Quantile(u.late_ms, 0.99), "ms"});
  out.push_back({"gen.late_max_ms",
                 u.late_ms.empty()
                     ? 0.0
                     : *std::max_element(u.late_ms.begin(), u.late_ms.end()),
                 "ms"});
  return out;
}

}  // namespace servebench
