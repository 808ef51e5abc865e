"""Benchmark harness: experiment runners and paper-style reporting.

The per-figure experiment definitions live in
:mod:`repro.bench.figures`; the pytest-benchmark entry points under
``benchmarks/`` call into them and persist the generated tables under
``benchmarks/results/`` (which EXPERIMENTS.md references).
"""

from repro.bench.harness import (
    RunResult,
    measure,
    normalized_rows,
)
from repro.bench.report import format_table, geomean, save_table

__all__ = [
    "RunResult",
    "measure",
    "normalized_rows",
    "format_table",
    "geomean",
    "save_table",
]
