#!/usr/bin/env python
"""Static plan analysis: prove a configuration sound before running it.

The optimizer stack rests on invariants the runtime only asserts
mid-flight: fused kernel orders respect data dependences, arena slabs
never alias live values, logical dtypes stay out of compute, every
ghost read has a scheduled exchange.  This script drives the static
analyzer that proves them up front:

1. `Session.analyze()` — the full checker stack over one compiled
   configuration, RP-coded diagnostics, clean on the shipped zoo,
2. the race-detector API (`may_overlap`, `check_order`) that any
   reordering and `MultiEngine`'s threaded overlap consult — including
   a racing candidate order refused with RP-coded diagnostics,
3. the mutation self-test: seeded corruptions (shrink a slab, leak a
   qint8 spec, drop a comm record, ...) each killed by their checker.

Run:  python examples/static_analysis.py [--model gat] [--dataset cora]
"""

import argparse

import repro
from repro.analysis import build_bundle, check_order, may_overlap, self_test


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="gat")
    parser.add_argument("--dataset", default="cora")
    args = parser.parse_args()

    # ------------------------------------------------------------------
    # 1. Analyze one configuration end to end.
    session = (
        repro.session()
        .model(args.model).dataset(args.dataset).strategy("ours")
    )
    report = session.analyze()
    print(f"=== analyze {args.model}/ours/{args.dataset} ===")
    print(report.summary())
    assert report.ok, "the shipped zoo must analyze clean"

    # The same stack, int8 storage precision: the precision-flow checker
    # proves the quantized dtype stays confined to vertex-data inputs.
    int8_report = (
        repro.session()
        .model(args.model).dataset(args.dataset).strategy("ours")
        .precision("int8").analyze(lint=False)
    )
    print(f"[int8] {int8_report.summary()}")
    assert int8_report.ok

    # ------------------------------------------------------------------
    # 2. The race-detector API under a compiled plan.
    bundle = build_bundle(session)
    plan = bundle.plans[0].plan
    n = len(plan.kernels)
    print(f"\n=== races ({bundle.plans[0].phase} plan, {n} kernels) ===")
    overlappable = sum(
        may_overlap(plan, i, j) for j in range(n) for i in range(j)
    )
    print(f"kernel pairs safe to overlap: {overlappable}/{n * (n - 1) // 2}")

    # A candidate order that inverts a dependent pair is refused with
    # RP-coded diagnostics naming the pair.
    bad = None
    for j in range(n):
        for i in range(j):
            if not may_overlap(plan, i, j):
                order = list(range(n))
                order[i], order[j] = order[j], order[i]
                if check_order(plan, order):
                    bad = order
                break
        if bad:
            break
    if bad is not None:
        first = check_order(plan, bad)[0]
        print(f"racing candidate rejected: {first.render()}")

    # ------------------------------------------------------------------
    # 3. Mutation self-test: the analyzer catches what it claims to.
    print("\n=== mutation self-test ===")
    for outcome in self_test(bundle):
        print(outcome.render())
    print("all mutants killed — done.")


if __name__ == "__main__":
    main()
