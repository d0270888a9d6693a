// Fleet builders: one per workload, all through the public serving API.

#include <chrono>
#include <string>

#include "bench.h"
#include "core/logging.h"

namespace servebench {
namespace {

using namespace std::chrono_literals;

// The paper's measured link: 12 ms per frame plus payload at 100 Mbit/s.
std::pair<dist::TransportPtr, dist::TransportPtr> PaperLink() {
  return dist::MakeEmulatedLinkPair(std::chrono::duration<double>(12e-3),
                                    100e6 / 8.0);
}

dist::BatchOptions ServeOptions() {
  dist::BatchOptions b;
  b.max_batch = 64;
  b.max_delay = 0ms;
  b.ha_chunk = 8;
  b.ha_window = 32;
  b.max_active_reqs = 256;
  b.queue_capacity = 8192;
  return b;
}

void Check(const core::Status& st, const char* what) {
  if (!st.ok()) {
    throw core::Error(std::string("servebench: ") + what + ": " +
                      st.ToString());
  }
}

/// One master + one worker on `link`, the worker started and attached.
void AddPartition(Fleet& f, std::pair<dist::TransportPtr, dist::TransportPtr> link,
                  const Models& m) {
  const std::size_t p = f.masters.size();
  f.masters.push_back(std::make_unique<dist::MasterNode>(m.cfg));
  f.workers.push_back(std::make_unique<dist::WorkerNode>(
      "p" + std::to_string(p) + "w0", m.cfg, std::move(link.second)));
  f.workers.back()->Start();
  f.masters.back()->AttachWorker(std::move(link.first));
}

/// HA pipeline roles: the full-width front on the master, the back half
/// (int8 or fp32 cut frames) on its worker.
void DeployPipeline(dist::MasterNode& master, const Models& m, bool int8_cut) {
  const auto combined = m.store.family().Combined();
  const std::int64_t width = combined.range.width();
  nn::Sequential full = m.store.ExtractSubnet(combined);
  auto halves = fluid::train::SplitConvNet(m.cfg, width, full, Models::kCut);
  master.DeployLocal("front", std::move(halves.front));
  auto bp = dist::ModelBlueprint::PipelineBack(m.cfg, width, Models::kCut);
  bp.quant.int8_wire = int8_cut;
  Check(master.DeployToWorker("back", bp, nn::ExtractState(halves.back), 10s),
        "deploy back half");
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = {
      {WorkloadKind::kHtBulk, "ht_bulk", false, 0.0, 1.0, 0.0, 64},
      {WorkloadKind::kHaBurst, "ha_burst", true, 950.0, 1.6, 400.0, 1},
      {WorkloadKind::kFleetFailover, "fleet_failover", true, 400.0, 1.0, 0.0,
       1},
  };
  return kAll;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<Fleet> BuildFleet(const Workload& w, const Models& m) {
  auto f = std::make_unique<Fleet>();
  const auto& family = m.store.family();
  switch (w.kind) {
    case WorkloadKind::kHtBulk: {
      // The paper's two devices in HT mode: lower-50% on the master,
      // upper-50% on the worker, over a link that costs nothing.
      AddPartition(*f, dist::MakeInMemoryPair(), m);
      dist::MasterNode& master = *f->masters[0];
      master.DeployLocal("lower50", m.store.ExtractSubnet(family.MasterResident()));
      const auto upper = family.WorkerResident();
      nn::Sequential upper_net = m.store.ExtractSubnet(upper);
      Check(master.DeployToWorker(
                "upper50",
                dist::ModelBlueprint::Standalone(m.cfg, upper.range.width()),
                nn::ExtractState(upper_net), 10s),
            "deploy upper50");
      dist::Plan plan;
      plan.master_standalone = "lower50";
      plan.worker_standalone = "upper50";
      master.SetPlan(plan);
      master.SetMode(fluid::sim::Mode::kHighThroughput);
      master.StartServing(ServeOptions());
      break;
    }
    case WorkloadKind::kHaBurst: {
      AddPartition(*f, PaperLink(), m);
      dist::MasterNode& master = *f->masters[0];
      DeployPipeline(master, m, /*int8_cut=*/true);
      dist::Plan plan;
      plan.pipeline_front = "front";
      plan.pipeline_back = "back";
      master.SetPlan(plan);
      master.SetMode(fluid::sim::Mode::kHighAccuracy);
      master.StartServing(ServeOptions());
      break;
    }
    case WorkloadKind::kFleetFailover: {
      f->router = std::make_unique<dist::RequestRouter>();
      for (int p = 0; p < 2; ++p) {
        AddPartition(*f, PaperLink(), m);
        dist::MasterNode& master = *f->masters.back();
        DeployPipeline(master, m, /*int8_cut=*/false);
        master.DeployLocal("lower50",
                           m.store.ExtractSubnet(family.MasterResident()));
        dist::Plan plan;
        plan.master_standalone = "lower50";
        plan.pipeline_front = "front";
        plan.pipeline_back = "back";
        master.SetPlan(plan);
        master.SetMode(fluid::sim::Mode::kHighAccuracy);
        master.StartServing(ServeOptions());
        f->router->AddPartition(&master);
      }
      break;
    }
  }
  return f;
}

ReplyFuture Fleet::Submit(core::Tensor input, const dist::SubmitOptions& opts) {
  if (router) return router->InferAsync(std::move(input), opts);
  return masters[0]->InferAsync(std::move(input), opts);
}

void Fleet::EnableTraceWire() {
  for (auto& m : masters) m->EnableTraceWire(0);
}

double Fleet::CrashAndProbe() {
  workers[0]->Crash();
  const auto t0 = Clock::now();
  masters[0]->ProbeWorkers();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Fleet::Reattach(const Models& models) {
  auto [master_end, worker_end] = PaperLink();
  crashed.push_back(std::move(workers[0]));
  workers[0] = std::make_unique<dist::WorkerNode>("p0w1", models.cfg,
                                                  std::move(worker_end));
  workers[0]->Start();
  retired_wire += masters[0]->wire_stats();
  const auto t0 = Clock::now();
  const core::Status st = masters[0]->ReattachWorker(0, std::move(master_end));
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!st.ok()) {
    FLUID_LOG(Error) << "servebench: reattach failed: " << st.ToString();
    return -1.0;
  }
  return ms;
}

void Fleet::Stop() {
  if (router) router->Stop();
  for (auto& m : masters) m->StopServing();
  for (auto& w : workers) w->Stop();
  for (auto& w : crashed) w->Stop();
}

}  // namespace servebench
