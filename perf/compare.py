#!/usr/bin/env python3
"""Compare two suite JSONs: ``python3 perf/compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians, the ratio B/A
(base: A), the bound from BENCHMARK.json and a verdict —

``worse``         B's median is worse than A's by more than the bound
``better``        … better by more than the bound
``within-bound``  neither
``unresolved``    the spread between reps, on either side, is wider than
                  the bound, and the two sets of reps overlap

``failed_frac`` has bound 0: any rise is ``worse``.  Exits non-zero on
any ``worse``.  ``--same-code`` (two runs of one commit and seed, as in
``run.py --selfcheck``) also fails on ``unresolved`` (except for
``setup_s``) and on any exact-count per-layer metric that differs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


def load_bounds() -> Dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def verdict(a: List[float], b: List[float], a_med: float, b_med: float,
            bound: float) -> str:
    """All four metrics are lower-is-better."""
    def spread(reps: List[float], med: float) -> float:
        return (max(reps) - min(reps)) / med if med else 0.0

    if max(spread(a, a_med), spread(b, b_med)) > bound:
        # Too noisy to call, unless one side beats the other outright.
        if max(b) < min(a):
            return "better"
        if min(b) > max(a) * (1.0 + bound):
            return "worse"
        return "unresolved"
    if b_med > a_med * (1.0 + bound):
        return "worse"
    if b_med < a_med * (1.0 - bound):
        return "better"
    return "within-bound"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--same-code", action="store_true")
    args = parser.parse_args(argv)
    from perf.metrics import EXACT

    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    bounds = load_bounds()
    bad = 0
    header = (f"{'workload':<20s} {'metric':<12s} {'A':>11s} {'B':>11s} "
              f"{'B/A':>7s} {'bound':>6s}  verdict")
    print(f"A = {args.a}\nB = {args.b}\n{header}")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<20s} missing from B")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, bound in bounds.items():
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            v = verdict(ma["reps"], mb["reps"], ma["median"], mb["median"], bound)
            # Set-up runs once per process, so three reps are three
            # samples; like the contract, do not hold its spread to the bound.
            bad += v == "worse" or (
                args.same_code and v == "unresolved" and metric != "setup_s"
            )
            print(f"{name:<20s} {metric:<12s} {ma['median']:>11.5g} "
                  f"{mb['median']:>11.5g} {mb['median'] / ma['median']:>7.3f} "
                  f"{bound:>6.2f}  {v}")
        fa, fb = wa["failed_frac"]["value"], wb["failed_frac"]["value"]
        v = "worse" if fb > fa else "better" if fb < fa else "within-bound"
        bad += v == "worse"
        print(f"{name:<20s} {'failed_frac':<12s} {fa:>11.5g} {fb:>11.5g} "
              f"{'-':>7s} {0:>6.2f}  {v}")
        differing = [
            m for m in EXACT
            if wa["per_layer"].get(m) != wb["per_layer"].get(m)
        ]
        for m in differing:
            print(f"{name:<20s} exact count {m}: "
                  f"{wa['per_layer'].get(m)} -> {wb['per_layer'].get(m)}")
        if args.same_code:
            bad += len(differing)
    print("FAIL" if bad else "OK", f"({bad} failing rows)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
