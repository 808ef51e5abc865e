"""Benchmark tables: figure normalisation and paper-style reporting.

The per-figure experiment definitions and their catalogue
(:data:`~repro.bench.figures.FIGURES`) live in
:mod:`repro.bench.figures`; ``python -m repro.bench`` persists the
generated tables under ``benchmarks/results/`` and the pytest-benchmark
entry points under ``benchmarks/`` assert their shapes.
"""

from repro.bench.harness import normalized_rows
from repro.bench.report import format_table, geomean, save_table

__all__ = [
    "normalized_rows",
    "format_table",
    "geomean",
    "save_table",
]
