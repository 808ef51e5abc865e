"""Static plan analysis — the checker-inventory extension.

Not a figure from the paper: the analyzer proves, per compiled
configuration, the invariants the paper's transforms silently rely on —
no kernel races under reordering, no simultaneously-live values on one
arena slab, no logical dtype reaching a compute kernel, every ghost
read backed by exactly one analytic comm record.  The inventory table
runs the full checker stack over the model zoo (baseline families,
inference-only configuration, ``ours`` and its int8 variant) and pins
the result: every cell is zero.

Qualitative shape asserted here (the PR's acceptance contract):

- every model row covers all swept targets and reports ``clean``,
- every checker column is all-zero across the zoo,
- the analyzer is not vacuous: the mutation self-test (exercised in
  ``tests/analysis/``) kills a seeded corruption for every checker
  class counted here.
"""

from repro.bench.figures import ANALYSIS_STRATEGIES
from repro.registry import MODELS

import pytest

CHECKER_COLS = (
    "structure", "races", "arena", "precision",
    "halo", "partition", "differential",
)


@pytest.fixture(scope="module")
def figure(figures):
    return figures["fig_static_analysis"]


class TestStaticAnalysisFigure:
    def test_covers_the_model_zoo(self, figure):
        assert [r["workload"] for r in figure.normalized] == sorted(
            MODELS.names()
        )

    def test_every_target_was_analyzed(self, figure):
        # One target per strategy, plus the int8 variant of ours.
        expected = len(ANALYSIS_STRATEGIES) + 1
        for row in figure.normalized:
            assert row["targets"] == expected, row["workload"]
            assert row["kernels"] > 0, row["workload"]

    def test_zoo_is_clean_on_every_checker(self, figure):
        for row in figure.normalized:
            assert row["clean"], row["workload"]
            for col in CHECKER_COLS:
                assert row[col] == 0, (
                    f"{row['workload']}: checker {col!r} reported "
                    f"{row[col]} error(s) on a clean configuration"
                )

    def test_determinism_lint_is_clean(self, figure):
        assert "determinism lint: 0 error(s)" in figure.table
