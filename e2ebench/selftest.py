#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at tiny sizes (about a minute).

Run from the repository root:

    python3 e2ebench/selftest.py

Checks, for every workload BENCHMARK.json names:
  * an untraced run prints every end_to_end metric with its unit, and a
    traced run every per_layer metric, with no failed frame;
  * in the traced run, server.read_write_us + server.handle_us equals the
    mean client round trip (server.rt_mean_us);
and that a deliberately corrupted expected reply trips the oracle latch:
the run exits 1 with failed_frac > 0. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check(cond, what):
    print("%s: %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(name, trace)
            check(code == 0 and res and res["correct"] and res["failed"] == 0,
                  "%s --trace %d: exit 0, every reply oracle-identical"
                  % (name, trace))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, "%s --trace %d: prints every %s metric with "
                  "its unit" % (name, trace, key))
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                total = m["server.read_write_us"] + m["server.handle_us"]
                check(abs(total - m["server.rt_mean_us"])
                      <= 1e-6 * m["server.rt_mean_us"],
                      "%s: read_write_us + handle_us = mean round trip" % name)

    code, res = run("spec-uniform", 0, "--corrupt-expected")
    check(code == 1 and res is not None and not res["correct"] and
          res["failed"] / res["attempted"] > 0,
          "a corrupted expected reply trips the latch (exit 1, "
          "failed_frac > 0)")


if __name__ == "__main__":
    main()
