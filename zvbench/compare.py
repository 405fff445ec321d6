#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

    python3 zvbench/compare.py --base A1.jsonl A2.jsonl ... --new B1.jsonl ...

Each file holds the records zvbench/run_zvbench.sh writes, one JSON object
per line: {"workload", "seed", "trace", "result": {correct, attempted,
failed, metrics}}. Untraced records (trace 0) are compared on the
end-to-end metrics of BENCHMARK.json, each with a verdict:

  improved      the new side wins at least 9 of every 10 pairs (pairs are
                taken in file order; ties count for neither side), at least
                10 pairs were run, and the medians differ by more than the
                base runs' interquartile range;
  unresolved    the base runs' own spread (IQR / median) is wider than the
                metric's bound, and not every new run beats every base run;
  regressed     the new median is worse than the base median by more than
                the bound (a share of the base median);
  within bound  otherwise.

Traced records (trace 1) are listed as per-layer medians side by side, so a
claimed gain can name the layer that moved. Standard library only.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(paths):
    """{(workload, trace): [result, ...]} in file order."""
    runs = defaultdict(list)
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                runs[(rec["workload"], int(rec["trace"]))].append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    iqr = b3 - b1
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    new_better = sign * (nmed - bmed) < 0
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    worse_by = sign * (nmed - bmed) / bmed if bmed else 0.0
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and new_better
            and abs(nmed - bmed) > iqr):
        return "improved"
    if bmed and iqr / abs(bmed) > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return "within bound"


def fmt(x):
    return f"{x:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--benchmark",
                    default=str(Path(__file__).resolve().parent.parent /
                                "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    base, new = load(args.base), load(args.new)
    status = 0

    for side, runs in (("base", base), ("new", new)):
        for (workload, trace), results in sorted(runs.items()):
            bad = [r for r in results if not r.get("correct")]
            if bad:
                print(f"!! {side} {workload} trace={trace}: {len(bad)} of "
                      f"{len(results)} runs report incorrect output")
                status = 1

    print(f"{'workload':<12} {'metric':<14} {'base median [q1, q3]':<30} "
          f"{'new median [q1, q3]':<30} {'delta':>8} {'bound':>6}  verdict")
    for name in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get((name, 0), []), new.get((name, 0), [])
        if not b_runs or not n_runs:
            continue
        for m in spec["end_to_end"]:
            key = m["name"]
            bv = [r["metrics"][key]["value"] for r in b_runs
                  if key in r["metrics"]]
            nv = [r["metrics"][key]["value"] for r in n_runs
                  if key in r["metrics"]]
            if not bv or not nv:
                continue
            b1, bmed, b3 = quartiles(bv)
            n1, nmed, n3 = quartiles(nv)
            delta = (nmed - bmed) / bmed if bmed else 0.0
            v = verdict(bv, nv, m["better"], m["bound"])
            if v == "regressed":
                status = 1
            print(f"{name:<12} {key:<14} "
                  f"{fmt(bmed) + ' [' + fmt(b1) + ', ' + fmt(b3) + ']':<30} "
                  f"{fmt(nmed) + ' [' + fmt(n1) + ', ' + fmt(n3) + ']':<30} "
                  f"{delta:>+8.1%} {m['bound']:>6.0%}  {v}")

    layer_names = [m["name"] for m in spec["per_layer"]]
    header = False
    for name in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get((name, 1), []), new.get((name, 1), [])
        if not b_runs or not n_runs:
            continue
        if not header:
            print(f"\nper-layer medians (traced runs)\n{'workload':<12} "
                  f"{'metric':<30} {'base':>12} {'new':>12} {'delta':>12} "
                  f"{'delta%':>8}")
            header = True
        for key in layer_names:
            bv = [r["metrics"][key]["value"] for r in b_runs
                  if key in r["metrics"]]
            nv = [r["metrics"][key]["value"] for r in n_runs
                  if key in r["metrics"]]
            if not bv or not nv:
                continue
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            pct = f"{(nmed - bmed) / bmed:+.1%}" if bmed else "-"
            print(f"{name:<12} {key:<30} {fmt(bmed):>12} {fmt(nmed):>12} "
                  f"{fmt(nmed - bmed):>12} {pct:>8}")
    return status


if __name__ == "__main__":
    sys.exit(main())
