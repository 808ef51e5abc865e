"""Golden regression: the committed tables must be reproducible.

Every entry of :data:`~repro.bench.figures.FIGURES`
(``benchmarks/results/<name>.txt``) and of
:data:`~repro.bench.__main__.SWEEPS` (``<name>.json``, written through
``SweepReport.save_json``) is rebuilt and compared byte for byte with
the file the repository ships, so a pass-pipeline, counter or
``SweepRow`` schema change that drifts the published numbers fails
loudly.  Nothing in the suite writes that directory —
``python -m repro.bench`` is its only writer — so the committed file is
simply read at test time.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.bench.__main__ import SWEEPS
from repro.bench.figures import FIGURES, WALL_CLOCK
from repro.bench.report import RESULTS_DIR
from repro.session import run_sweep


def _sweep_json(name: str) -> str:
    """The JSON ``python -m repro.bench`` would persist for one sweep."""
    with tempfile.TemporaryDirectory() as tmp:
        run_sweep(**SWEEPS[name], save_as=name, results_dir=tmp)
        with open(os.path.join(tmp, f"{name}.json")) as fh:
            return fh.read()


def test_backend_calibration_structure():
    """Pin the :data:`WALL_CLOCK` figure *structurally*, never by timing.

    Measured wall-clock is host-dependent, so this figure cannot be
    compared byte for byte.  What is stable — and pinned here — is its
    shape: one row per kernel class with every class present, positive
    measured and analytic seconds, finite ratios, and the table
    header/title format the README documents.
    """
    from repro.exec.measure import KERNEL_CLASSES

    (name,) = WALL_CLOCK  # a second one needs its own structural pin
    fig = FIGURES[name](num_vertices=600, num_edges=4000, feat=8, repeats=1)
    assert [r["kernel_class"] for r in fig.normalized] == list(KERNEL_CLASSES)
    for row in fig.normalized:
        assert row["kernels"] > 0
        assert row["measured_s"] > 0.0
        assert row["analytic_s"] > 0.0
        assert 0.0 < row["ratio"] < float("inf")
    lines = fig.table.splitlines()
    assert lines[0].startswith("kernel-calibration (gat training step")
    assert lines[1].split() == [
        "dtype", "class", "kernels", "measured", "s", "analytic", "s", "ratio",
    ]
    assert all(r["dtype"] == "float32" for r in fig.normalized)
    assert len(lines) == 3 + len(fig.normalized)


@pytest.mark.parametrize("name", sorted((set(FIGURES) - WALL_CLOCK) | set(SWEEPS)))
def test_committed_table_is_reproducible(name, figures):
    path = os.path.join(
        RESULTS_DIR, name + (".json" if name in SWEEPS else ".txt")
    )
    assert os.path.exists(path), (
        f"{path} is missing — run `python -m repro.bench` and commit "
        "the generated table"
    )
    with open(path) as fh:
        committed = fh.read()
    fresh = _sweep_json(name) if name in SWEEPS else figures[name].table
    assert fresh.rstrip() + "\n" == committed, (
        f"{name}: freshly generated table differs from the committed "
        f"{path}.  If the change is intentional, rerun "
        "`python -m repro.bench` and commit the new table; otherwise a "
        "pass/counter change drifted published numbers."
    )
