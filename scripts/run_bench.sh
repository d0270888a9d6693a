#!/usr/bin/env bash
# Builds Release and records the perf baselines at the repo root so the
# trajectory is tracked PR over PR:
#   BENCH_gemm.json    — GEMM / conv microbenchmarks (google-benchmark)
#   BENCH_serving.json — live serving baselines, three sections:
#                          closed_loop — sync RPC path vs the async batched
#                            runtime over the paper's emulated link
#                            (fig2_throughput closed_loop=1)
#                          ha_quant    — HighAccuracy pipeline, fp32 (v2)
#                            vs int8 (v3) cut-activation frames, closed- and
#                            open-loop with latency percentiles
#                            (fig2_throughput ha=1)
#                          mixed_slo   — continuous batching: bursty
#                            3-class open-loop traffic on the HA pipeline,
#                            per-priority-class latency percentiles plus
#                            deadline-miss/preemption counters
#                            (fig2_throughput mixed=1)
#                          wire        — HT fan-out data plane: fp32 (v2)
#                            vs int8 input shards (wire v5) on one fleet,
#                            with per-phase wire byte/frame counters and
#                            the input quantization's top-1 fidelity
#                            (fig2_throughput wire=1)
#                          cluster_scale — partitioned multi-master
#                            scale-out: RequestRouter over N=1..4
#                            masters, each with its own worker and
#                            emulated link; aggregate closed-loop req/s
#                            plus 3-class open-loop percentiles per N,
#                            measured with 1-in-16 request tracing and
#                            the wire v6 trace block on
#                            (fig2_throughput cluster=1)
#                          obs         — latency breakdown per SLO class:
#                            queue-wait vs service vs wire p50/p99 from
#                            the serving path's own histograms, every
#                            request traced (fig2_throughput obs=1)
#                          int8_accuracy — top-1 of the int8 deployment vs
#                            its fp32 source (fig2_accuracy quant_json=…;
#                            skipped when FLUID_BENCH_SKIP_ACCURACY=1 — it
#                            trains the three model families; the
#                            previously recorded section carries over)
#
# Usage: scripts/run_bench.sh [extra google-benchmark args...]
# Records a single-thread run (FLUID_NUM_THREADS=1): the serving hosts
# this benchmarks are single-core, and a multi-thread section recorded on
# a one-CPU runner measures oversubscription, not scaling.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"

# Fail loudly when the benchmark target is missing or broken (e.g.
# google-benchmark not found at configure time, or micro_ops.cpp does not
# compile) instead of silently recording nothing — or worse, silently
# benchmarking a stale binary from an earlier build.
cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release

# Verify the tree really configured Release before recording any rate: a
# stale cache (or a Debug override on the command line) must fail loudly,
# not silently stamp debug-build numbers into the tracked baselines.
# Note: google-benchmark's context.library_build_type describes the
# SYSTEM libbenchmark package, not this library — the authoritative field
# for our code is the cmake_build_type recorded below from this check.
configured_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "${build_dir}/CMakeCache.txt" | head -n1)"
if [[ "${configured_type}" != "Release" ]]; then
  echo "error: build tree at ${build_dir} is configured as" \
       "'${configured_type:-<unset>}', not Release." >&2
  echo "       Refusing to record benchmark numbers from a non-Release" \
       "build; delete ${build_dir}/CMakeCache.txt and rerun." >&2
  exit 1
fi

if ! cmake --build "${build_dir}" -j "$(nproc)" --target micro_ops; then
  echo "error: building micro_ops failed." >&2
  echo "       Is google-benchmark installed? (find_package(benchmark))" >&2
  exit 1
fi
if [[ ! -x "${build_dir}/micro_ops" ]]; then
  echo "error: ${build_dir}/micro_ops was not produced by the build." >&2
  exit 1
fi

# The served nets layer by layer (compiled plan vs Sequential, µs per row
# and GF/s) next to the GEMM peak of the same run.
filter='BM_Gemm|BM_QGemmInt8|BM_Conv2dForward|BM_SubnetForward|BM_CompiledNetForward|BM_SequentialServedForward'
tmp1="$(mktemp)" merged=""
trap 'rm -f "${tmp1}" ${merged:+"${merged}"}' EXIT

FLUID_NUM_THREADS=1 "${build_dir}/micro_ops" \
  --benchmark_filter="${filter}" --benchmark_format=json "$@" > "${tmp1}"

# Merge into a temp file and move into place only on success, so a failed
# run never truncates the tracked baseline.
merged="$(mktemp)"
python3 - "${tmp1}" "${configured_type}" > "${merged}" <<'EOF'
import json, sys
one = json.load(open(sys.argv[1]))
ctx = one["context"]
# The verified build type of THIS library (context.library_build_type is
# the system google-benchmark package's own, which we don't control).
ctx["cmake_build_type"] = sys.argv[2]
json.dump({
    "context": ctx,
    "threads_1": one["benchmarks"],
}, sys.stdout, indent=1)
EOF
mv "${merged}" "${repo_root}/BENCH_gemm.json"

echo "wrote ${repo_root}/BENCH_gemm.json"

# ---- serving baselines ------------------------------------------------------
if ! cmake --build "${build_dir}" -j "$(nproc)" --target fig2_throughput; then
  echo "error: building fig2_throughput failed." >&2
  exit 1
fi
serving_tmp="$(mktemp)" ha_tmp="$(mktemp)" acc_tmp="$(mktemp)" mixed_tmp="$(mktemp)" wire_tmp="$(mktemp)" cluster_tmp="$(mktemp)" obs_tmp="$(mktemp)"
trap 'rm -f "${tmp1}" ${merged:+"${merged}"} "${serving_tmp}" "${ha_tmp}" "${acc_tmp}" "${mixed_tmp}" "${wire_tmp}" "${cluster_tmp}" "${obs_tmp}"' EXIT
"${build_dir}/fig2_throughput" closed_loop=1 clients=8 per_client=100 \
  json="${serving_tmp}"
# Wire data plane: the HT fan-out served fp32 (v2) vs int8 input shards
# (v5) on the same fleet and link — the per-phase wire byte counters and
# the input quantization's top-1 fidelity land in the `wire` section.
"${build_dir}/fig2_throughput" wire=1 clients=64 per_client=50 max_batch=64 \
  json="${wire_tmp}"
# Quantized HA: the 12 ms / 100 Mbit/s paper link, deep cut (stage 1 —
# the regime where the cut-activation stream saturates the serial link),
# open-loop Poisson at 900 req/s (between the fp32 and int8 capacities,
# so the percentile gap shows the saturation cliff).
"${build_dir}/fig2_throughput" ha=1 clients=64 per_client=50 max_batch=64 \
  ha_window=32 cut=1 rate=900 open_requests=500 json="${ha_tmp}"
# Continuous batching under mixed-SLO bursty traffic: same link and HA
# int8 operating point as ha_quant's open loop, but three priority
# classes with per-class deadlines and a square-wave burst around the
# 950 req/s average — the gate is the high class's p99 against the
# single-class ha_quant baseline.
"${build_dir}/fig2_throughput" mixed=1 rate=950 requests=3000 \
  max_batch=64 ha_window=32 cut=1 json="${mixed_tmp}"
# Partitioned multi-master scale-out: the router over N=1..4 partitions,
# each master + worker on its OWN 12 ms / 100 Mbit/s emulated link — the
# aggregate req/s at N=3 vs N=1 is the scale-out gate, and the high
# class's open-loop p99 must hold against the single-master mixed_slo
# baseline.
"${build_dir}/fig2_throughput" cluster=1 masters=4 json="${cluster_tmp}"
# Latency breakdown: the serving path's queue-wait/service/wire histograms
# split each SLO class's latency into its scheduler, compute and link
# components; every request is traced so the wire component covers the run.
"${build_dir}/fig2_throughput" obs=1 rate=300 requests=2000 \
  json="${obs_tmp}"

if [[ "${FLUID_BENCH_SKIP_ACCURACY:-0}" != "1" ]]; then
  if ! cmake --build "${build_dir}" -j "$(nproc)" --target fig2_accuracy; then
    echo "error: building fig2_accuracy failed." >&2
    exit 1
  fi
  "${build_dir}/fig2_accuracy" quant_json="${acc_tmp}"
else
  # Skipping the (training-heavy) accuracy run must not erase the last
  # recorded numbers: carry the previous int8_accuracy section forward.
  python3 - "${repo_root}/BENCH_serving.json" > "${acc_tmp}" <<'EOF'
import json, sys
try:
    prev = json.load(open(sys.argv[1]))
except (OSError, ValueError):
    prev = {}
json.dump(prev.get("int8_accuracy", {}), sys.stdout)
EOF
fi

serving_merged="$(mktemp)"
python3 - "${serving_tmp}" "${ha_tmp}" "${acc_tmp}" "${mixed_tmp}" "${wire_tmp}" "${cluster_tmp}" "${obs_tmp}" > "${serving_merged}" <<'EOF'
import json, sys
closed, ha, acc, mixed, wire, cluster, obs = (
    json.load(open(p)) for p in sys.argv[1:8])
out = {"closed_loop": closed, "ha_quant": ha, "mixed_slo": mixed,
       "wire": wire, "cluster_scale": cluster, "obs": obs}
# Steady-state heap discipline per scenario, gathered in one place so the
# alloc/request trajectory is tracked PR over PR next to the latencies.
out["mem_discipline"] = {
    "closed_loop": {
        k: closed[k]
        for k in ("sync_allocs_per_req", "sync_bytes_per_req",
                  "async_allocs_per_req", "async_bytes_per_req")
        if k in closed
    },
    "ha_quant": {
        k: ha[k]
        for k in ("fp32_allocs_per_req", "fp32_bytes_per_req",
                  "int8_allocs_per_req", "int8_bytes_per_req")
        if k in ha
    },
    "ha_quant_open_loop": {
        f"{tier}_{k}": ha[tier + "_open"][k]
        for tier in ("fp32", "int8") if tier + "_open" in ha
        for k in ("allocs_per_req", "bytes_per_req")
        if k in ha[tier + "_open"]
    },
}
if acc:
    out["int8_accuracy"] = acc
json.dump(out, sys.stdout, indent=1)
EOF
mv "${serving_merged}" "${repo_root}/BENCH_serving.json"
echo "wrote ${repo_root}/BENCH_serving.json"
