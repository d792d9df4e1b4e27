#!/usr/bin/env python3
"""The end-to-end benchmark of record for ssalive-server.

Run from the repository root:

    python3 e2ebench/run.py --workload spec-uniform --seed 1 --seconds 10 --trace 0

Builds the server and the load generator from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), then runs e2e-loadgen, which spawns the
server on TCP loopback, drives it closed-loop and checks every reply against
an in-process oracle. The last stdout line is one JSON object: correct,
attempted, failed, and the metrics BENCHMARK.json names for this mode
(end_to_end with --trace 0, per_layer with --trace 1). Exit status is
non-zero when a frame failed, a telemetry count did not reconcile, or the
build or run did not complete.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1), "--target", "ssalive-server",
                    "e2e-loadgen"], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["spec-uniform", "interference", "edit-storm"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (not a benchmark figure)")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="flip one expected reply byte (self-test)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("e2ebench: build failed: %s" % e)
        return 1

    cmd = [os.path.join(build_dir, "e2e-loadgen"),
           "--server=" + os.path.join(build_dir, "ssalive", "ssalive-server"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--workdir=" + build_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench: load generator exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("e2ebench: load generator exited %d without a result"
            % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    if args.trace:
        with open(os.path.join(HERE, "baseline.json")) as f:
            base = json.load(f)
        for name, value in sorted(base.get(args.workload, {}).items()):
            print("baseline at %s: %s = %s" % (base["commit"], name, value))

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("e2ebench: metric %s [%s] missing from the load generator"
                % (m["name"], m["unit"]))
            return 1
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
