"""A plan's counters lowered to affine forms, against the walk they replace.

``ExecPlan.cost_forms(pinned).evaluate(stats)`` prices a plan from
integer coefficient arrays lowered once.  The oracle is the walk it
replaced, kept in :mod:`tests.helpers`: :func:`~tests.helpers.kernel_record`
runs the per-node formulas on integer extents for every kernel, and the
ledger is :func:`repro.exec.memory.ledger_walk` on integer sizes.  The
two must agree field for field with integers exactly equal — on any
(V, E), including E < V (where a max of forms picks its other
candidate), an empty graph and an edgeless one, for any pinned set, and
with several stats priced in one evaluation.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.models  # noqa: F401  (populates the model registry)
from repro.exec import plan_module
from repro.exec.cost_form import Affine, _matrix
from repro.exec.memory import ledger_walk, root_sizes
from repro.frameworks import list_strategies
from repro.graph import GraphStats
from repro.ir import Builder, Domain
from repro.registry import MODELS

from tests.helpers import phase_counters, zoo_plans

#: fp32, and the two storage formats whose row bytes are not a width
#: multiple of it: bf16 (2-byte elements) and int8 (+4-byte row scales).
PRECISIONS = ("fp32", "bf16", "int8")
#: reddit-full's extents: the coefficients stay exact at published scale.
REDDIT = (232965, 114615892)


def _stats(V: int, E: int) -> GraphStats:
    """Stats with exactly these extents (degrees spread evenly)."""
    q, r = divmod(E, V) if V else (0, 0)
    degrees = np.full(V, q, dtype=np.int64)
    degrees[:r] += 1
    return GraphStats(V, E, degrees, degrees.copy())


extents = st.integers(0, 50_000).flatmap(
    lambda V: st.tuples(st.just(V), st.integers(0, 3 * V))
)


class TestEvaluationEqualsTheWalk:
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("strategy", list_strategies())
    @pytest.mark.parametrize("model", sorted(MODELS.names()))
    @settings(max_examples=3, deadline=None)
    @given(first=extents, second=extents, mask=st.integers(0, 2**16 - 1))
    @example(first=(0, 0), second=(1, 0), mask=0)
    @example(first=(500, 120), second=REDDIT, mask=2**16 - 1)
    def test_field_for_field(self, model, strategy, precision, first, second, mask):
        inputs, plans = zoo_plans(model, strategy, precision)
        # A subset of the inputs and parameters, one mask bit each.
        pinned = [name for i, name in enumerate(inputs) if mask >> i & 1]
        stats = [_stats(*first), _stats(*second)]
        for plan in plans:
            forms = plan.cost_forms(pinned)
            got = forms.evaluate(stats)
            for phase, s in zip(got, stats):
                want = phase_counters(plan, s, pinned=pinned)
                assert phase.records == want.records
                assert phase.peak_memory_bytes == want.peak_memory_bytes
                assert phase.end_resident_bytes == want.end_resident_bytes
                # Timeline, pinned share (so live peak) and end residency.
                assert forms.walk(s) == ledger_walk(
                    plan, root_sizes(plan, s), pinned=pinned
                )
                for record in phase.records:
                    assert type(record.flops) is float
                    assert all(
                        type(v) is int
                        for v in (record.rows, record.read_bytes, record.write_bytes)
                    )


class TestForms:
    def test_a_shared_read_stays_a_max(self):
        # One fused kernel reads h through the edges (E rows) and in its
        # own extent (V rows): the read term is max(E, V) rows, so the
        # forms must not commit to either candidate.
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        v = b.gather("sum", b.scatter("copy_u", u=h))
        b.output(b.apply("add", v, b.apply("relu", h)))
        plan = plan_module(b.build(), mode="unified")
        assert len(plan.kernels) == 1
        forms = plan.cost_forms()
        for V, E in ((100, 600), (600, 100)):
            (phase,) = forms.evaluate([_stats(V, E)])
            assert phase.records[0].read_bytes == max(V, E) * 16

    def test_lowered_once_per_pinned_set(self):
        pinned, (fwd, _) = zoo_plans("gat", "ours", "fp32")
        assert fwd.cost_forms(pinned) is fwd.cost_forms(list(reversed(pinned)))
        assert fwd.cost_forms() is not fwd.cost_forms(pinned)
        assert fwd.cost_forms().kernels is fwd.cost_forms(pinned).kernels

    def test_no_stats_no_counters(self):
        _, (fwd, _) = zoo_plans("gcn", "ours", "fp32")
        assert fwd.cost_forms().evaluate([]) == []

    def test_coefficients_must_be_integers(self):
        assert _matrix([Affine(2, 3, 4), 5]).tolist() == [[2, 3, 4], [0, 0, 5]]
        with pytest.raises(ValueError, match="not integers"):
            _matrix([Affine(e=0.5)])

    def test_affine_has_no_order(self):
        with pytest.raises(TypeError):
            max(Affine(v=1), Affine(e=1))
        with pytest.raises(TypeError):
            Affine(v=1) * Affine(e=1)
