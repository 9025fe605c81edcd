#!/usr/bin/env python3
"""Compares two sets of dynfb-e2e result files, seed by seed.

    python3 bench/e2e/agree.py SET_A SET_B [--benchmark BENCHMARK.json]

SET_A and SET_B are directories of result files (run.sh --out-dir DIR, or
dynfb-e2e --out FILE). Different seeds do different work, so runs are only
compared with runs of the same workload and seed. For each (workload,
metric) the script takes every seed both sets ran, computes how much worse
B reads than A on that seed, and prints both sets' medians over those seeds,
the median of the per-seed changes, their IQR (statistics.quantiles, n=4)
and a verdict against the metric's bound from BENCHMARK.json:

  within bound  the median change is not worse than the bound
  worse         the median change is worse than the bound
  unresolved    the IQR of the changes exceeds the bound, unless B reads
                better than A on every seed
  no bound      per-layer metrics, which BENCHMARK.json gives no bound

Same-seed runs must also agree bit for bit on every deterministic output
(the simulated "facts" each result file carries). Exits nonzero on any
"worse" or "unresolved" verdict or deterministic mismatch.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_set(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = []
    for name in files:
        with open(name) as f:
            doc = json.load(f)
        if "workload" in doc and "metrics" in doc:
            runs.append(doc)
    if not runs:
        sys.exit(f"agree.py: no result files in {path}")
    return runs


def by_seed(runs, workload, metric):
    """Each seed's median value of one metric."""
    values = {}
    for r in runs:
        if r["workload"] == workload and metric in r["metrics"]:
            values.setdefault(r["seed"], []).append(r["metrics"][metric]["value"])
    return {seed: statistics.median(v) for seed, v in values.items()}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    parser.add_argument("--benchmark", default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load_set(args.set_a), load_set(args.set_b)

    ok = True
    compared = 0
    print(f"{'workload':14} {'metric':26} {'seeds':>5} {'median A':>12} {'median B':>12} "
          f"{'worse by':>9} {'IQR':>8}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric, spec in specs.items():
            va, vb = by_seed(a, workload, metric), by_seed(b, workload, metric)
            seeds = sorted(set(va) & set(vb))
            if not seeds:
                continue
            compared += 1
            sign = 1 if spec["better"] == "lower" else -1
            changes = [sign * (vb[s] - va[s]) / abs(va[s]) if va[s] else 0.0 for s in seeds]
            worse, spread = statistics.median(changes), iqr(changes)
            bound = spec.get("bound")
            if bound is None:
                verdict = "no bound"
            elif spread > bound:
                verdict = "within bound" if all(c < 0 for c in changes) else "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "within bound"
            ok = ok and verdict in ("within bound", "no bound")
            print(f"{workload:14} {metric:26} {len(seeds):5} "
                  f"{statistics.median(va[s] for s in seeds):12.6g} "
                  f"{statistics.median(vb[s] for s in seeds):12.6g} "
                  f"{worse:+9.2%} {spread:8.2%}  {verdict}")
    if not compared:
        sys.exit("agree.py: the two sets share no (workload, seed)")

    pairs = differ = 0
    for ra in a:
        for rb in b:
            if (ra["workload"], ra["seed"]) != (rb["workload"], rb["seed"]):
                continue
            pairs += 1
            if ra.get("facts") != rb.get("facts"):
                differ += 1
                print(f"deterministic outputs differ: {ra['workload']} seed {ra['seed']}")
    print(f"deterministic outputs: {pairs - differ} of {pairs} same-seed pairs identical")
    ok = ok and differ == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
