#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The kernel libraries and the vbench binary
are built from source into .bench_build/ (CMake), then vbench runs the
workload. Everything vbench prints is passed through; the last line is
replaced by one JSON object holding exactly the metrics BENCHMARK.json lists
for the mode: its end_to_end metrics with --trace 0, its per_layer metrics
with --trace 1. A per-layer metric whose layer the workload does not
exercise reads 0. --selftest builds and runs the tests of the benchmark's own
logic instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve-mixed", "file-stream", "graft-churn")


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr.
    Compiler temporaries go under .bench_build/tmp, inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    def run(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run(["cmake", "--build", BUILD, "--target", target, "-j", jobs]) == 0


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("vbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD, "vbench_test")]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    metrics = listed_metrics(args.trace)
    if not build("vbench"):
        print("run.py: build failed", file=sys.stderr)
        return 1

    spans = os.path.join(BUILD, "spans-%s.csv" % args.workload)
    cmd = [os.path.join(BUILD, "vbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("\n".join(lines))
        print("run.py: vbench printed no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))

    measured = result["metrics"]
    out = {}
    for m in metrics:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                print("run.py: end-to-end metric %s was not measured" % m["name"],
                      file=sys.stderr)
                return 1
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            print("run.py: %s is in %s, BENCHMARK.json says %s"
                  % (m["name"], got["unit"], m["unit"]), file=sys.stderr)
            return 1
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"] and proc.returncode == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": out}))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
