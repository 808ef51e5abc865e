"""Kernel race detector: conflicts, happens-before, hazard waves and
order checking."""

import numpy as np
import pytest

from repro.analysis.races import (
    check_order,
    conflicts,
    happens_before,
    hazard_waves,
    kernel_access,
    kernel_dependencies,
    may_overlap,
)
from repro.frameworks import compile_training, get_strategy
from repro.registry import MODELS


@pytest.fixture(scope="module")
def plan():
    """A fused forward plan with enough kernels to reorder."""
    compiled = compile_training(MODELS.get("gat")(8, 3), get_strategy("ours"))
    assert len(compiled.fwd_plan.kernels) > 2
    return compiled.fwd_plan


def _first_raw_pair(plan):
    n = len(plan.kernels)
    for j in range(n):
        for i in range(j):
            if any(c.kind == "RAW" for c in conflicts(plan, i, j)):
                return i, j
    pytest.skip("plan has no dependent kernel pair")


class TestConflicts:
    def test_kernel_access_roots_resolved(self, plan):
        for i in range(len(plan.kernels)):
            acc = kernel_access(plan, i)
            # Boundary sets name storage roots, never view aliases.
            for root in acc.reads | acc.writes:
                assert plan.root_of(root) == root

    def test_ssa_means_only_raw_at_value_level(self, plan):
        n = len(plan.kernels)
        kinds = {
            c.kind
            for j in range(n)
            for i in range(j)
            for c in conflicts(plan, i, j)
        }
        assert "RAW" in kinds
        # Every root has one producer, so plan order shows no WAW; WAR
        # only appears once byte reuse (a memory_plan) enters.
        assert "WAW" not in kinds

    def test_dependent_pair_must_not_overlap(self, plan):
        i, j = _first_raw_pair(plan)
        assert not may_overlap(plan, i, j)
        assert conflicts(plan, i, j)

    def test_happens_before_covers_raw_pairs(self, plan):
        hb = happens_before(plan)
        i, j = _first_raw_pair(plan)
        assert i in hb[j]


#: The built-in strategies that compile training plans: each orders and
#: fuses kernels differently, so each yields its own wave decomposition.
TRAINING_STRATEGIES = (
    "ours", "ours-stash", "ours-nofusion", "ours-noreorg", "ours-edgemap",
    "dgl-like", "fusegnn-like",
)


def _training_plans(model_name, strategy_name):
    model = MODELS.get(model_name)(6, 4)
    compiled = compile_training(model, get_strategy(strategy_name))
    return compiled.fwd_plan, compiled.bwd_plan


class TestHazardWaves:
    """The wave decomposition MultiEngine's overlap modes execute by."""

    @pytest.mark.parametrize("strategy_name", TRAINING_STRATEGIES)
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_waves_are_overlap_safe_antichains(self, model_name, strategy_name):
        for plan in _training_plans(model_name, strategy_name):
            waves = hazard_waves(plan)
            seen = sorted(k for wave in waves for k in wave)
            assert seen == list(range(len(plan.kernels)))
            deps = kernel_dependencies(plan)
            for w, wave in enumerate(waves):
                for a in wave:
                    # Level-consistency: every dependence sits in an
                    # earlier wave.
                    for d in deps[a]:
                        assert any(d in waves[v] for v in range(w))
                    for b in wave:
                        if a < b:
                            assert may_overlap(plan, a, b)

    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_kernel_dependencies_extend_happens_before(self, model_name):
        for plan in _training_plans(model_name, "ours"):
            hb = happens_before(plan)
            deps = kernel_dependencies(plan)
            for k in range(len(plan.kernels)):
                assert hb[k] <= deps[k]


class TestCheckOrder:
    def test_identity_order_is_clean(self, plan):
        assert check_order(plan, list(range(len(plan.kernels)))) == []

    def test_swapped_raw_pair_is_rp101(self, plan):
        i, j = _first_raw_pair(plan)
        order = list(range(len(plan.kernels)))
        order[i], order[j] = order[j], order[i]
        diags = check_order(plan, order)
        assert diags
        assert all(d.code == "RP101" for d in diags)
        # The diagnostics name the exact inverted pair at least once.
        assert any(
            {d.location.kernel, d.location.kernel2} == {i, j} for d in diags
        )

    def test_non_permutation_is_rp103(self, plan):
        order = [0] * len(plan.kernels)
        diags = check_order(plan, order)
        assert [d.code for d in diags] == ["RP103"]

    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_every_inverted_dependence_is_rp101(self, model_name):
        # Not only gat's first RAW pair: on every zoo plan, each
        # happens-before edge run backwards is refused by name.
        inverted = 0
        for plan in _training_plans(model_name, "ours"):
            n = len(plan.kernels)
            assert check_order(plan, list(range(n))) == []
            for j, before in enumerate(happens_before(plan)):
                for i in before:
                    inverted += 1
                    order = list(range(n))
                    order[i], order[j] = order[j], order[i]
                    diags = check_order(plan, order)
                    assert diags and all(d.code == "RP101" for d in diags)
                    assert any(
                        {d.location.kernel, d.location.kernel2} == {i, j}
                        for d in diags
                    ), (model_name, i, j)
        assert inverted > 0
