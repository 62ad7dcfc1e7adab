#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload scorecard_serve --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/cmake; later calls rebuild incrementally. Build output
goes to stderr. Every flag is passed through to the perfbench binary.

BENCHMARK.json is the one list of metric names. The binary's last line
holds the metrics the workload measured; this script checks each against
that list (name and unit), reports the per-layer metrics of layers the
workload never enters as 0, and prints the result in the list's order as
the last line of stdout.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
BUILD_DIR = os.path.join(".bench_build", "cmake")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def to_spec(result, spec, layers):
    """The binary's result with the metrics of `spec`, or None (and why).

    `layers`: a traced result, where a metric the workload never measured
    reads 0; in an untraced result every metric must be measured.
    """
    got = result["metrics"]
    for name, entry in got.items():
        if name not in spec:
            return None, "unlisted metric " + name
        if entry["unit"] != spec[name]:
            return None, "%s has unit %s, not %s" % (name, entry["unit"],
                                                     spec[name])
    metrics = {}
    for name, unit in spec.items():
        if name in got:
            metrics[name] = got[name]
        elif layers:
            print("layer  %-38s %16.6f %-6s n=0 (not entered)"
                  % (name, 0.0, unit))
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            return None, "no value for " + name
    return dict(result, metrics=metrics), None


def main(argv):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: run from a checkout that holds src/",
              file=sys.stderr)
        return 2
    with open(SPEC) as f:
        spec = json.load(f)
    at = argv.index("--trace") + 1 if "--trace" in argv else len(argv)
    traced = at < len(argv) and argv[at].lstrip("0") != ""
    kind = "per_layer" if traced else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    if not build():
        return 2
    sys.stdout.flush()
    binary = os.path.join(BUILD_DIR, "perfbench")
    done = subprocess.run([binary] + list(argv), stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or 2
    print("\n".join(lines[:-1]))
    try:
        result, why = to_spec(json.loads(lines[-1]), wanted, traced)
    except (ValueError, KeyError, AttributeError) as e:
        result, why = None, "unreadable last line (%s)" % e
    if result is None:
        print("perfbench: %s result: %s" % (kind, why), file=sys.stderr)
        return 2
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
