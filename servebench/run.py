#!/usr/bin/env python3
"""Build and run the serving benchmark (see servebench/README.md).

    python3 servebench/run.py --workload ha_burst --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --selftest

Run from anywhere inside a checkout: the harness is compiled from the
checkout's own sources into .bench_build/servebench at its root. The
benchmark process is pinned to one compute thread per emulated device
(FLUID_NUM_THREADS=1). The last line of stdout is the JSON result; the
exit code is non-zero on any failed or wrong reply.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
BINARY = os.path.join(BUILD_DIR, "servebench")
WORKLOADS = ("ht_bulk", "ha_burst", "fleet_failover")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the harness; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dist", "master.h")):
        print("servebench: the library sources (src/) are not in this "
              "checkout", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "servebench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("servebench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_binary(args):
    """Run the harness; returns (exit code, stdout text)."""
    env = dict(os.environ, FLUID_NUM_THREADS="1")
    try:
        proc = subprocess.run([BINARY] + args, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def run_workload(workload, opts):
    args = ["--workload", workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        dump_dir = os.path.join(BUILD_DIR, "dumps")
        os.makedirs(dump_dir, exist_ok=True)
        args += ["--dump-dir", dump_dir]
    return run_binary(args)


def run_all(opts):
    """Every workload in turn; one combined result, metrics prefixed by
    workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        rc, out = run_workload(workload, opts)
        lines = out.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("servebench: %s printed no result" % workload,
                  file=sys.stderr)
            return 1
        code = code or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the oracle rejects a flipped bit")
    opts = parser.parse_args()
    if not opts.selftest and opts.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if opts.selftest:
        rc, out = run_binary(["--selftest"])
        sys.stdout.write(out)
        return rc
    if opts.workload == "all":
        return run_all(opts)
    rc, out = run_workload(opts.workload, opts)
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
