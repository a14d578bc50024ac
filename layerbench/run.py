#!/usr/bin/env python3
"""Build and run the layered benchmark.

    python3 layerbench/run.py --workload lodo-deploy --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds
`bench_layers` (the library sources of this checkout plus the benchmark's
own files) under `.bench_build/layerbench`; later runs only rebuild what
changed. The benchmark's human-readable report goes to standard output,
followed by one JSON line: `correct`, `attempted`, `failed` and `metrics`,
where the metrics are the `end_to_end` set of BENCHMARK.json with
`--trace 0` and the `per_layer` set with `--trace 1`. The full results file
(machine fingerprint, git SHA, seed, per-phase counts, every figure) is
written to `.bench_build/results/`.

Exits non-zero without a result line when the program cannot be built or
the run does not produce every metric BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "layerbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "bench_layers")
RUN_TIMEOUT_S = 170


def fail(message):
    print("layerbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources next to the benchmark (%s/src)" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "bench_layers"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step %s failed: %s" % (cmd[:2], err))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metric_names(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (path, err))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["lodo-deploy", "edge-stream", "fleet-zipf"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    names = metric_names(args.trace)
    build()
    os.makedirs(RESULTS, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS, "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("run failed: %s" % err)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("the run printed no result line (exit code %d)" % done.returncode)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("the run did not report %s" % ", ".join(missing))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names},
    }))


if __name__ == "__main__":
    main()
