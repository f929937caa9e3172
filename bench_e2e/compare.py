#!/usr/bin/env python3
"""Diff a BENCH_e2e.json (from run.py --all) against the committed baseline.

    python3 bench_e2e/compare.py [BENCH_e2e.json]

Prints one row per (workload, end-to-end metric): the baseline in
bench_e2e/baselines/e2e.json and the current median, the change in the
metric's bad direction as a share of the baseline, and the metric's bound from
BENCHMARK.json. A change worse than its bound is a regression, and so is a
failed output check. Per-layer rows follow for attribution, without a verdict.
Exit code 1 on a regression, 2 when a workload or metric of the baseline is
missing from the run.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baselines", "e2e.json")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def worse_share(base, cur, better):
    """How much worse `cur` is than `base`, as a share of `base` (negative = better)."""
    if base == 0:
        return 0.0 if cur == base else float("inf")
    change = (cur - base) / abs(base)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current", nargs="?", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = parser.parse_args()
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    base, cur = load(BASELINE), load(args.current)

    for key in ("host", "nproc", "gemm_pin", "seed", "seconds"):
        if base.get(key) != cur.get(key):
            print(f"note: {key} differs: baseline {base.get(key)!r}, current {cur.get(key)!r}")

    regressions, missing = [], []
    print(f"\n{'workload':<12} {'metric':<16} {'baseline':>12} {'current':>12} {'worse':>8} "
          f"{'bound':>6}  verdict")
    for w, b in base["workloads"].items():
        c = cur["workloads"].get(w)
        if c is None:
            missing.append(w)
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b["end_to_end"] or name not in c["end_to_end"]:
                missing.append(f"{w}.{name}")
                continue
            bv, cv = b["end_to_end"][name]["value"], c["end_to_end"][name]["value"]
            worse = worse_share(bv, cv, m["better"])
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            if verdict == "REGRESSION":
                regressions.append(f"{w} {name}")
            print(f"{w:<12} {name:<16} {bv:>12.4f} {cv:>12.4f} {100 * worse:>7.1f}% "
                  f"{100 * m['bound']:>5.0f}%  {verdict}")
        if c["failed"]:
            regressions.append(f"{w} failed {c['failed']} of {c['attempted']}")
            print(f"{w:<12} {'failed':<16} {b['failed']:>12d} {c['failed']:>12d}  REGRESSION")

    print(f"\n{'workload':<12} {'per-layer metric':<30} {'baseline':>14} {'current':>14} "
          f"{'change':>8}")
    for w, b in base["workloads"].items():
        c = cur["workloads"].get(w)
        if c is None:
            continue
        for m in spec["per_layer"]:
            name = m["name"]
            bv = b["per_layer"].get(name, {}).get("value")
            cv = c["per_layer"].get(name, {}).get("value")
            if bv is None or cv is None:
                missing.append(f"{w}.{name}")
                continue
            if bv == 0 and cv == 0:
                continue  # a layer this workload does not run
            change = f"{100 * (cv - bv) / abs(bv):>7.1f}%" if bv else "     new"
            print(f"{w:<12} {name:<30} {bv:>14.4f} {cv:>14.4f} {change}")

    for item in missing:
        print(f"missing from the run: {item}", file=sys.stderr)
    for item in regressions:
        print(f"regression: {item}", file=sys.stderr)
    if missing:
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
