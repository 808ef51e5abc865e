"""``python -m repro.lint`` — the static analyzer's command line.

Three modes, all exiting non-zero on any ERROR diagnostic:

- ``python -m repro.lint MODEL STRATEGY DATASET`` — analyze one
  registry triple (add ``--precision``/``--parts`` to vary it),
- ``python -m repro.lint --all`` — the full zoo: every registered
  model × every registered strategy on the default dataset, plus the
  fp16/bf16/int8 precision variants of ``ours``, plus one determinism
  lint of the serve/dyn/bench trees,
- ``python -m repro.lint --self-test`` — mutation mode: seeded
  corruptions (swap kernels, shrink a slab, leak a qint8 spec, drop a
  comm record, …) must each be killed by their checker.

The CI smoke leg runs ``--all --self-test``: zero diagnostics on the
clean zoo *and* 100% mutant kill, so a regression in either the
artifacts or the analyzer itself fails the build.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.analysis import (
    Analyzer,
    build_bundle,
    describe_code,
    lint_paths,
    self_test,
)
from repro.analysis.determinism import default_lint_paths
from repro.analysis.diagnostics import CODES, Severity
from repro.registry import MODELS, STRATEGIES
from repro.session import PlanCache, Session

__all__ = ["main", "DEFAULT_DATASET", "PRECISION_VARIANTS"]

DEFAULT_DATASET = "cora"

#: Precision variants analyzed on top of the plain strategies in --all.
PRECISION_VARIANTS = ("fp16", "bf16", "int8")


def _session(
    cache: PlanCache, model: str, strategy: str, dataset: str, args
) -> Session:
    s = Session(cache=cache).model(model).dataset(dataset).strategy(strategy)
    if args.precision:
        s = s.precision(args.precision)
    return s


def _analyze_one(session: Session, args, *, lint: bool, target=None) -> int:
    report = Analyzer().run(
        build_bundle(session, lint=lint, parts=args.parts, target=target)
    )
    errors = len(report.errors)
    if errors or args.verbose:
        print(report.summary())
    else:
        print(f"{report.target}: clean ({len(report.checkers_run)} checkers)")
    return errors


def _run_all(args) -> int:
    cache = PlanCache()
    errors = 0
    targets = 0
    for model in sorted(MODELS.names()):
        for strategy in sorted(STRATEGIES.names()):
            s = Session(cache=cache).model(model).dataset(args.dataset)
            s = s.strategy(strategy)
            errors += _analyze_one(s, args, lint=False)
            targets += 1
        for precision in PRECISION_VARIANTS:
            s = Session(cache=cache).model(model).dataset(args.dataset)
            s = s.strategy("ours").precision(precision)
            errors += _analyze_one(
                s, args, lint=False,
                target=f"{model}/ours+{precision}/{args.dataset}",
            )
            targets += 1
    # The determinism contract is target-independent: lint once.
    lint_diags = lint_paths(default_lint_paths())
    for d in lint_diags:
        print(d.render())
    errors += sum(1 for d in lint_diags if d.severity is Severity.ERROR)
    print(
        f"analyzed {targets} zoo target(s) + determinism lint: "
        f"{errors} error(s)"
    )
    return errors


def _run_self_test(args) -> int:
    cache = PlanCache()
    bundle = build_bundle(
        Session(cache=cache)
        .model(args.mutant_model)
        .dataset(args.dataset)
        .strategy("ours"),
        lint=False,
        parts=args.parts,
    )
    try:
        outcomes = self_test(bundle)
    except AssertionError as exc:
        print(f"self-test FAILED: {exc}")
        return 1
    for o in outcomes:
        print(o.render())
    print(f"self-test: {len(outcomes)}/{len(outcomes)} mutants killed")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="statically analyze compiled configurations "
        "(RP-coded diagnostics; see --codes)",
    )
    parser.add_argument("triple", nargs="*", metavar="MODEL STRATEGY DATASET",
                        help="one registry triple to analyze")
    parser.add_argument("--all", action="store_true",
                        help="analyze every model x strategy (+ precision "
                        "variants) and lint the serve/dyn/bench trees")
    parser.add_argument("--self-test", action="store_true", dest="self_test",
                        help="mutation mode: every seeded corruption must "
                        "be killed by its checker")
    parser.add_argument("--dataset", default=DEFAULT_DATASET,
                        help=f"dataset for --all/--self-test "
                        f"(default {DEFAULT_DATASET})")
    parser.add_argument("--precision", default=None,
                        help="precision override for a triple run")
    parser.add_argument("--parts", type=int, default=2,
                        help="synthesized partition width when no cluster "
                        "is configured (default 2)")
    parser.add_argument("--mutant-model", default="gat",
                        help="model the self-test corrupts (default gat)")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the determinism source lint on a "
                        "triple run")
    parser.add_argument("--codes", action="store_true",
                        help="print the diagnostic-code table and exit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print full reports even when clean")
    args = parser.parse_args(argv)

    if args.codes:
        for code in sorted(CODES):
            print(describe_code(code))
        return 0

    errors = 0
    ran = False
    if args.triple:
        if len(args.triple) != 3:
            parser.error(
                "expected MODEL STRATEGY DATASET "
                f"(got {len(args.triple)} argument(s))"
            )
        model, strategy, dataset = args.triple
        session = _session(PlanCache(), model, strategy, dataset, args)
        suffix = f"+{args.precision}" if args.precision else ""
        errors += _analyze_one(
            session, args, lint=not args.no_lint,
            target=f"{model}/{strategy}{suffix}/{dataset}",
        )
        ran = True
    if args.all:
        errors += _run_all(args)
        ran = True
    if args.self_test:
        errors += _run_self_test(args)
        ran = True
    if not ran:
        parser.error("nothing to do: pass a triple, --all, or --self-test")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
