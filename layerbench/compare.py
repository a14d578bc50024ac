#!/usr/bin/env python3
"""Compare two sets of layered-benchmark runs against BENCHMARK.json's bounds.

    python3 layerbench/compare.py BASE_DIR NEW_DIR [--trace]

Each directory holds results files written by bench_layers
(`<workload>-seed<N>-trace<T>.json`, as run.py leaves them in
`.bench_build/results/`; copy that directory aside between the two sets).
For every workload and every end-to-end metric (per-layer metrics with
--trace) it prints each set's median and quartiles, the spread of each set
(interquartile range over median, as statistics.quantiles(n=4) gives it),
and the change of the new median against the base median in the metric's
better direction. An end-to-end metric whose new median is worse than the
base median by more than its bound is marked REGRESSED, and so is a
workload whose share of failed operations differs; the exit code is 1 when
anything regressed. Per-layer metrics have no bound and are only listed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(directory, trace):
    """{workload: [results document, ...]} for one set of runs."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") != "layerbench/1" or bool(doc["trace"]) != trace:
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    return runs


def summary(values):
    """(q1, median, q3, spread) of a list of numbers."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def failed_share(docs):
    attempted = sum(sum(p["attempted"] for p in d["phases"]) for d in docs)
    failed = sum(sum(p["failed"] for p in d["phases"]) for d in docs)
    return failed / attempted if attempted else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--trace", action="store_true",
                    help="compare the per-layer metrics of traced runs")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    base = load_set(args.base, args.trace)
    new = load_set(args.new, args.trace)
    regressed = False
    for workload in sorted(set(base) | set(new)):
        b_docs = base.get(workload, [])
        n_docs = new.get(workload, [])
        print("== %s: %d base runs, %d new runs" %
              (workload, len(b_docs), len(n_docs)))
        if not b_docs or not n_docs:
            print("   (missing in one set)")
            continue
        fb, fn = failed_share(b_docs), failed_share(n_docs)
        if fb != fn:
            regressed = True
        print("   failed share: base %.6g new %.6g%s" %
              (fb, fn, "  REGRESSED" if fb != fn else ""))
        print("   %-40s %-8s %27s %27s %8s %8s %8s" %
              ("metric", "unit", "base q1/median/q3", "new q1/median/q3",
               "b.sprd", "n.sprd", "change"))
        for m in metrics:
            name = m["name"]
            bv = [d["metrics"][name]["value"] for d in b_docs
                  if name in d["metrics"]]
            nv = [d["metrics"][name]["value"] for d in n_docs
                  if name in d["metrics"]]
            if not bv or not nv:
                print("   %-40s (not reported)" % name)
                continue
            b1, bm, b3, bs = summary(bv)
            n1, nm, n3, ns = summary(nv)
            sign = 1.0 if m["better"] == "higher" else -1.0
            change = sign * (nm - bm) / bm if bm else 0.0
            verdict = ""
            if "bound" in m:
                if change < -m["bound"]:
                    verdict = "  REGRESSED (bound %.2f)" % m["bound"]
                    regressed = True
                elif max(bs, ns) > m["bound"]:
                    verdict = "  spread above bound %.2f" % m["bound"]
            print("   %-40s %-8s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g "
                  "%8.3f %8.3f %+7.1f%%%s" %
                  (name, m["unit"], b1, bm, b3, n1, nm, n3, bs, ns,
                   100.0 * change, verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
