#!/usr/bin/env python3
"""Tiny-scale self-test of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py at --scale tiny, untraced and
traced, and checks that the command exits 0, that every metric
BENCHMARK.json names is in the JSON result, and that every oracle gate
passed. It then corrupts
one checked answer per workload (--corrupt-op) and checks that the failure
is counted and the command exits non-zero. Takes about a minute.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py: the build step)

SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
WORK_DIR = os.path.join(".bench_build", "selftest")


def perfbench(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny",
           "--work-dir", WORK_DIR] + list(extra)
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout + done.stderr


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    if not run.build():
        print("selftest: build failed")
        return 1
    failures = []

    def check(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, out = perfbench(name, trace)
            label = "%s trace=%d" % (name, trace)
            if result is None:
                check(False, label + ": printed a JSON result\n" + out[-2000:])
                continue
            check(code == 0, label + ": exit code 0 (got %d)" % code)
            check(result["correct"] and result["failed"] == 0,
                  label + ": every oracle gate passed")
            check(result["attempted"] >= 1, label + ": ops attempted")
            want = [m["name"] for m in spec[key]]
            got = result["metrics"]
            check(sorted(got) == sorted(want),
                  label + ": emits exactly the %s metrics" % key)
            for m in spec[key]:
                entry = got.get(m["name"])
                check(entry is not None and entry["unit"] == m["unit"] and
                      math.isfinite(entry["value"]),
                      label + ": %s has unit %s and a finite value"
                      % (m["name"], m["unit"]))
            if trace == 0:
                check(all(got[m["name"]]["value"] > 0
                          for m in spec["end_to_end"]),
                      label + ": end-to-end metrics are non-zero")

        # A corrupted answer must fail the gate: corrupt the first answer
        # the workload compares with the oracle.
        code, result, out = perfbench(name, 0, ["--corrupt-op", "1"])
        check(result is not None and code != 0 and not result["correct"] and
              result["failed"] >= 1,
              name + ": a corrupted answer is counted and exits non-zero")

    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
