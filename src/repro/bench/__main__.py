"""Regenerate ``benchmarks/results/``: ``python -m repro.bench``.

This command is the only writer of that directory.  Every table is an
entry of :data:`repro.bench.figures.FIGURES` (saved as ``<name>.txt``)
or of :data:`SWEEPS` (a registry-driven :func:`repro.run_sweep`, saved
as ``<name>.json``).  With no flag every entry of both is rebuilt; a
case flag (:data:`CASES`; ``--help`` lists them) rebuilds the CI-sized
subset it names, and flags combine, running in ``--help`` order.

None of the files embeds a timestamp, so a run leaves ``git status``
clean unless a number moved — except ``backend_calibration_smoke.txt``,
whose cells are wall-clock (:data:`~repro.bench.figures.WALL_CLOCK`).
The tier-1 suite only reads the directory: ``benchmarks/`` asserts each
table's qualitative shape and the golden test compares a fresh build
with the committed bytes.  To move numbers on purpose, rerun this
command and commit the result.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import NamedTuple, Tuple

from repro.bench.figures import FIGURES
from repro.bench.report import save_table
from repro.session import run_sweep

#: ``run_sweep`` keyword sets of the golden sweep JSONs, keyed by the
#: ``benchmarks/results/<name>.json`` each is saved as.  :data:`CASES`
#: and ``benchmarks/test_golden_regression.py`` both read this.
SWEEPS = {
    # CI-sized sanity sweep: small dims, citation-scale workloads.
    "sweep_smoke": dict(
        models=["gat", "gcn"],
        datasets=["cora", "pubmed"],
        strategies=["dgl-like", "ours"],
        feature_dim=32,
    ),
    "sweep_minibatch_smoke": dict(
        models=["sage"],
        datasets=["pubmed"],
        strategies=["ours"],
        batch_size=[None, 1024, 256],
        feature_dim=32,
    ),
    "sweep_precision_smoke": dict(
        models=["gat"],
        datasets=["cora"],
        strategies=["ours"],
        precision=[None, "fp16", "int8"],
        feature_dim=32,
    ),
    "sweep_main": dict(
        models=["gat", "gcn", "sage", "gin"],
        datasets=["cora", "pubmed", "reddit-full"],
        strategies=["dgl-like", "ours"],
        feature_dim=64,
    ),
}


class Case(NamedTuple):
    """What one command-line flag rebuilds: names in :data:`FIGURES` and
    :data:`SWEEPS`."""

    help: str
    figures: Tuple[str, ...] = ()
    sweeps: Tuple[str, ...] = ()


#: Command-line cases in run order, keyed by flag.
CASES = {
    "smoke": Case(
        "run a quick CI-sized sweep instead of all paper figures",
        sweeps=("sweep_smoke",),
    ),
    "minibatch": Case(
        "run the CI-sized sampled mini-batch training sweep (full-graph "
        "vs sampled epochs)",
        sweeps=("sweep_minibatch_smoke",),
    ),
    "memory": Case(
        "run the CI-sized arena memory-planning case: the model-zoo "
        "memory-plan table (ledger vs arena peak)",
        figures=("fig_memory_plan",),
    ),
    "serve": Case(
        "run the online inference-serving case: tail latency, SLO and "
        "cache hit rate over offered load and cache size",
        figures=("fig_serving_latency",),
    ),
    "dynamic": Case(
        "run the dynamic-serving case: staleness, invalidation and "
        "tail latency over the write share",
        figures=("fig_dynamic_serving",),
    ),
    "measured": Case(
        "run the measured-execution case: kernel-class calibration vs "
        "the analytic roofline (wall-clock)",
        figures=("backend_calibration_smoke",),
    ),
    "precision": Case(
        "run the mixed-precision case: the model-zoo precision-io table "
        "and a precision sweep",
        figures=("fig_precision_io",),
        sweeps=("sweep_precision_smoke",),
    ),
}

#: What runs with no flag: everything.
FULL = Case(
    "with no flag, regenerate every table under benchmarks/results/",
    tuple(FIGURES),
    tuple(SWEEPS),
)


def run_case(case: Case) -> None:
    """Build, print and save every figure, then every sweep, of ``case``."""
    for name in case.figures:
        t0 = time.time()  # repro: allow-wallclock
        table = FIGURES[name]().table
        path = save_table(name, table)
        print(table)
        print(f"  -> {path}  [{time.time() - t0:.1f}s]\n")  # repro: allow-wallclock
    for name in case.sweeps:
        t0 = time.time()  # repro: allow-wallclock
        sweep = run_sweep(**SWEEPS[name], save_as=name)
        print(sweep.table())
        print(
            f"  -> {name}.json  [{time.time() - t0:.1f}s, "  # repro: allow-wallclock
            f"{sweep.cache_misses} compiles, {sweep.cache_hits} cache hits]\n"
        )


def main(argv: list[str] | None = None) -> int:
    """Run every selected case in :data:`CASES` order, :data:`FULL` when
    none is selected."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=FULL.help
    )
    for flag, case in CASES.items():
        parser.add_argument(f"--{flag}", action="store_true", help=case.help)
    args = parser.parse_args(argv)
    selected = [case for flag, case in CASES.items() if getattr(args, flag)]
    for case in selected or [FULL]:
        run_case(case)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
