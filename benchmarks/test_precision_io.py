"""Mixed-precision IO — the dtype-aware accounting extension.

Not a figure from the paper: the precision-io table prices every
registered model's inference plan under ``ours`` at each storage
precision — the full-graph feature-gather bill and the analytic peak —
against the fp32 oracle.

Qualitative shape asserted here:

- fp16 and bf16 cut gather bytes and the analytic peak to **exactly**
  half of fp32 on every model (every float32 spec halves and the
  per-row counts are even),
- int8 undercuts fp16 on gather bytes (a quarter of fp32 plus one
  dequantisation scale per row),
- the ``run_sweep(precision=...)`` axis carries the same halving.
"""

import pytest

from repro.bench.__main__ import SWEEPS
from repro.ir.precision import PRECISIONS
from repro.registry import MODELS
from repro.session import run_sweep


@pytest.fixture(scope="module")
def by_model(figures):
    out = {}
    for row in figures["fig_precision_io"].normalized:
        out.setdefault(row["workload"], {})[row["precision"]] = row
    return out


class TestPrecisionIOFigure:
    def test_covers_the_zoo_at_every_precision(self, by_model):
        assert sorted(by_model) == sorted(MODELS.names())
        assert all(list(rows) == list(PRECISIONS) for rows in by_model.values())

    @pytest.mark.parametrize("half", ["fp16", "bf16"])
    def test_half_precision_halves_gather_and_peak_exactly(self, by_model, half):
        for name, rows in by_model.items():
            for q in ("gather_bytes", "peak_bytes"):
                assert rows[half][q] * 2 == rows["fp32"][q], (name, q)

    def test_int8_gather_undercuts_fp16(self, by_model):
        for name, rows in by_model.items():
            assert rows["int8"]["gather_bytes"] < rows["fp16"]["gather_bytes"], name

    def test_sweep_axis_carries_the_halving(self):
        sweep = run_sweep(**SWEEPS["sweep_precision_smoke"])
        assert [r.precision for r in sweep.rows] == [None, "fp16", "int8"]
        (fp32,), (fp16,) = sweep.by(precision=None), sweep.by(precision="fp16")
        assert fp16.peak_memory_bytes * 2 == fp32.peak_memory_bytes
