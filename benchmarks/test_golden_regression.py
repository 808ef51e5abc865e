"""Golden regression: the committed figure tables must be reproducible.

Pins every ``benchmarks/results/fig*.txt`` (plus the inline-stat and
multi-GPU scaling tables) and every ``sweep_*.json`` written through
``SweepReport.save_json`` against freshly generated output, so a
pass-pipeline, counter or ``SweepRow`` schema change that silently
drifts the published numbers fails loudly instead of being papered
over by the re-persisting figure tests and smoke commands.

The committed file contents are snapshotted at *collection* time —
before any figure test in this run rewrites them — so the comparison is
genuinely against what the repository ships.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.bench import figures
from repro.bench.__main__ import SWEEPS
from repro.bench.report import RESULTS_DIR
from repro.session import run_sweep


def _sweep_json(name: str) -> str:
    """The JSON ``python -m repro.bench`` would persist for one sweep."""
    with tempfile.TemporaryDirectory() as tmp:
        run_sweep(**SWEEPS[name], save_as=name, results_dir=tmp)
        with open(os.path.join(tmp, f"{name}.json")) as fh:
            return fh.read()


# name -> zero-arg callable producing the table (or sweep JSON) text.
GOLDEN_TABLES = {
    "fig7_gat": lambda: figures.fig7_gat().table,
    "fig7_edgeconv": lambda: figures.fig7_edgeconv().table,
    "fig7_monet": lambda: figures.fig7_monet().table,
    "fig8_reorganization": lambda: figures.fig8_reorganization().table,
    "fig9_fusion": lambda: figures.fig9_fusion().table,
    "fig10_recomputation": lambda: figures.fig10_recomputation().table,
    "fig11_small_gpu": lambda: figures.fig11_small_gpu().table,
    "scaling_multi_gpu": lambda: figures.fig_multi_gpu_scaling().table,
    "minibatch_io": lambda: figures.fig_minibatch_io().table,
    "fig_memory_plan": lambda: figures.fig_memory_plan().table,
    "fig_static_analysis": lambda: figures.fig_static_analysis().table,
    "fig_precision_io": lambda: figures.fig_precision_io().table,
    "fig_overlap_efficiency": lambda: figures.fig_overlap_efficiency().table,
    "fig_serving_latency": lambda: figures.fig_serving_latency().table,
    "fig_dynamic_serving": lambda: figures.fig_dynamic_serving().table,
    "inline_redundancy": lambda: figures.inline_redundant_computation()[1],
    "inline_memory_share": lambda: figures.inline_intermediate_memory_share()[1],
}
GOLDEN_TABLES.update(
    (name, lambda name=name: _sweep_json(name)) for name in SWEEPS
)

# Snapshot at import (collection) time, before figure tests overwrite.
_COMMITTED = {}
for _name in GOLDEN_TABLES:
    _path = os.path.join(
        RESULTS_DIR, _name + (".json" if _name in SWEEPS else ".txt")
    )
    if os.path.exists(_path):
        with open(_path) as _fh:
            _COMMITTED[_name] = _fh.read()


def test_backend_calibration_structure():
    """Pin the calibration figure *structurally*, never by timing.

    Measured wall-clock is host-dependent, so this figure cannot join
    :data:`GOLDEN_TABLES`.  What is stable — and pinned here — is its
    shape: one row per (registered backend, kernel class) with every
    class present for every backend, positive measured and analytic
    seconds, finite ratios, and the table header/title format the
    README documents.
    """
    from repro.exec.kernel_registry import available_backends
    from repro.exec.measure import KERNEL_CLASSES

    fig = figures.fig_backend_calibration(
        num_vertices=600, num_edges=4000, feat=8, repeats=1
    )
    backends = available_backends()
    assert [r["backend"] for r in fig.normalized] == [
        b for b in backends for _ in KERNEL_CLASSES
    ]
    assert [r["kernel_class"] for r in fig.normalized] == list(
        KERNEL_CLASSES
    ) * len(backends)
    for row in fig.normalized:
        assert row["kernels"] > 0
        assert row["measured_s"] > 0.0
        assert row["analytic_s"] > 0.0
        assert 0.0 < row["ratio"] < float("inf")
    lines = fig.table.splitlines()
    assert lines[0].startswith("backend-calibration (gat training step")
    assert lines[1].split() == [
        "backend", "dtype", "class", "kernels", "measured", "s",
        "analytic", "s", "ratio",
    ]
    assert all(r["dtype"] == "float32" for r in fig.normalized)
    assert len(lines) == 3 + len(fig.normalized)


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_committed_table_is_reproducible(name):
    assert name in _COMMITTED, (
        f"benchmarks/results/{name}.* is missing — run the benchmark "
        "suite once and commit the generated table"
    )
    fresh = GOLDEN_TABLES[name]().rstrip() + "\n"
    assert fresh == _COMMITTED[name], (
        f"{name}: freshly generated table differs from the committed "
        f"benchmarks/results/{name}.*.  If the change is intentional, "
        "regenerate and commit the new table; otherwise a pass/counter "
        "change drifted published numbers."
    )
