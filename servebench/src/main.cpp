// servebench driver.
//
//   servebench --workload <ht_bulk|ha_burst|fleet_failover> --seed N
//              --seconds S --trace 0|1 [--dump-dir DIR]
//   servebench --selftest
//
// Prints a human-readable table, then, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics of the untraced pass; --trace 1 additionally runs
// a traced pass and reports the per-layer table instead. Exits 1 when any
// reply failed or was wrong, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/parallel.h"

namespace servebench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string dump_dir;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(val);
    } else if (key == "--dump-dir") {
      a.dump_dir = val;
    } else {
      return false;
    }
  }
  return a.selftest ||
         (FindWorkload(a.workload) != nullptr && a.seconds > 0.0 &&
          (a.trace == 0 || a.trace == 1));
}

/// Fleets built (and torn down) per run; setup_s is their median.
constexpr int kSetups = 9;
constexpr std::size_t kPoolSize = 256;

/// Build the fleet and time it to the first accepted request, which is
/// then awaited and verified like any other.
std::unique_ptr<Fleet> TimedSetup(const Workload& w, const Models& models,
                                  const Oracle& oracle, double& setup_s,
                                  std::int64_t& bad) {
  std::vector<std::uint32_t> images(static_cast<std::size_t>(w.batch));
  for (std::size_t i = 0; i < images.size(); ++i) {
    images[i] = static_cast<std::uint32_t>(i % oracle.images.size());
  }
  core::Tensor x = MakeInput(oracle, images);
  dist::SubmitOptions so;
  const auto t0 = Clock::now();
  std::unique_ptr<Fleet> fleet = BuildFleet(w, models);
  ReplyFuture fut = fleet->Submit(std::move(x), so);
  setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  auto reply = fut.get();
  if (!reply.ok() || !VerifyReply(oracle, reply->logits, images)) ++bad;
  return fleet;
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
  if (!f) std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Args& args) {
  const Workload& w = *FindWorkload(args.workload);
  std::printf("# servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("# threads: nproc=%u FLUID_NUM_THREADS=%s (compute pool %d)\n",
              std::thread::hardware_concurrency(),
              std::getenv("FLUID_NUM_THREADS") != nullptr
                  ? std::getenv("FLUID_NUM_THREADS")
                  : "unset",
              core::NumThreads());

  const Models models;
  const Oracle oracle = BuildOracle(w, models, args.seed, kPoolSize);

  std::int64_t bad = 0;  // failed or wrong replies, warmup included
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  for (int k = 0; k < kSetups; ++k) {
    fleet.reset();
    double s = 0.0;
    fleet = TimedSetup(w, models, oracle, s, bad);
    setups.push_back(s);
  }
  const double setup_s = Median(setups);

  PassOptions opts;
  opts.seed = args.seed;
  opts.seconds = args.seconds;
  const PassResult untraced = RunPass(*fleet, w, oracle, models, opts);
  fleet.reset();

  std::int64_t attempted = untraced.attempted;
  std::int64_t failed = untraced.failed + untraced.wrong;
  bad += untraced.wrong_total + untraced.failed_total;
  MetricList metrics;
  if (args.trace == 0) {
    metrics = EndToEndMetrics(untraced, setup_s);
  } else {
    double ignored = 0.0;
    fleet = TimedSetup(w, models, oracle, ignored, bad);
    opts.traced = true;
    opts.seconds = args.seconds / 2;
    const PassResult traced = RunPass(*fleet, w, oracle, models, opts);
    fleet.reset();
    attempted += traced.attempted;
    failed += traced.failed + traced.wrong;
    bad += traced.wrong_total + traced.failed_total;
    if (!args.dump_dir.empty()) {
      const std::string base = args.dump_dir + "/" + w.name;
      WriteFile(base + ".trace.json", fluid::obs::Tracer::Global().DumpJson());
      WriteFile(base + ".metrics.json",
                fluid::obs::MetricsRegistry::Global().DumpMetrics());
    }
    metrics = PerLayerMetrics(w, models, untraced, traced);
  }

  std::printf("# measured %lld requests (%lld failed, %lld wrong), %lld "
              "images over %.3f s; max outstanding %lld\n",
              static_cast<long long>(untraced.attempted),
              static_cast<long long>(untraced.failed),
              static_cast<long long>(untraced.wrong),
              static_cast<long long>(untraced.images), untraced.span_s,
              static_cast<long long>(untraced.max_outstanding));
  for (const Metric& m : metrics) {
    std::printf("%-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = bad == 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "servebench: %lld failed or wrong replies\n",
                 static_cast<long long>(bad));
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <ht_bulk|ha_burst|"
                 "fleet_failover> --seed N --seconds S --trace 0|1 "
                 "[--dump-dir DIR] | --selftest\n");
    return 2;
  }
  try {
    return args.selftest ? servebench::OracleSelfTest() : servebench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
