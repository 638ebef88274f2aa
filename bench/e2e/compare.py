#!/usr/bin/env python3
#===----------------------------------------------------------------------===//
#
# Part of AlgSpec. MIT license.
#
#===----------------------------------------------------------------------===//
"""Compares two directories of end-to-end benchmark results.

    bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the untraced result records run.sh writes
(<workload>-seed<N>-trace0-<time>.json). Runs are paired in the order they
were made. Per workload and end-to-end metric the rule is:

  - a gain needs at least 10 pairs, the change winning at least 9 in 10 of
    them (ties count for neither), and a median gap wider than the
    parent's interquartile range;
  - a regression is a change median worse than the parent's by more than
    the metric's bound in BENCHMARK.json;
  - a metric whose spread (interquartile range over median) exceeds its
    bound on either side is unresolved, unless every change run beats
    every parent run.

A higher failure ratio (failed / attempted) is a regression too. One row
is printed per workload; the exit status is 1 on any regression.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    paths = glob.glob(os.path.join(directory, "*-trace0-*.json"))
    for path in sorted(paths, key=lambda p: int(p.rsplit("-", 1)[1][:-5])):
        with open(path) as f:
            run = json.load(f)
        runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fail_ratio(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def judge(metric, parent, change):
    """One metric of one workload: (verdict, detail text)."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    spread = max((pq3 - pq1) / pmed if pmed else 0,
                 (cq3 - cq1) / cmed if cmed else 0)
    pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
    worse = (cmed - pmed) if lower else (pmed - cmed)
    gap = cmed / pmed - 1 if pmed else 0.0
    detail = (f"{name}: parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] change "
              f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}] ({gap:+.1%}), "
              f"wins {wins}/{len(pairs)}, spread {spread:.1%} of bound "
              f"{bound:.0%}")
    all_better = all((b < a if lower else b > a) for a in p for b in c)
    if worse > bound * pmed:
        return "REGRESSION", detail
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(cmed - pmed) > pq3 - pq1 and worse < 0):
        return "gain", detail
    if spread > bound and not all_better:
        return "unresolved", detail
    return "same", detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..",
        "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        sys.exit("error: no untraced results in one of the directories")

    regressed = False
    for workload in sorted(set(parent) | set(change)):
        p, c = parent.get(workload, []), change.get(workload, [])
        if not p or not c:
            print(f"{workload}: missing on one side")
            regressed = True
            continue
        pf, cf = fail_ratio(p), fail_ratio(c)
        verdicts = []
        details = []
        for metric in metrics:
            verdict, detail = judge(metric, p, c)
            verdicts.append(f"{metric['name']}={verdict}")
            details.append(f"    {verdict:10} {detail}")
            regressed |= verdict == "REGRESSION"
        if cf > pf:
            regressed = True
            verdicts.append("fail_ratio=REGRESSION")
        print(f"{workload}: {min(len(p), len(c))} pairs, fail ratio "
              f"{pf:.4g} -> {cf:.4g}; " + ", ".join(verdicts))
        print("\n".join(details))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
