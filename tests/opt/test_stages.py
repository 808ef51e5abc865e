"""The stage memo: strategies that share a model object share its pure
compile stages, and sharing changes nothing a compile produces."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import repro.opt.stages as stages_module
from repro.frameworks import (
    compile_forward,
    compile_training,
    get_strategy,
    list_strategies,
)
from repro.graph.stats import GraphStats
from repro.ir.autodiff import TrainingGraph
from repro.ir.module import Module
from repro.ir.serialize import dumps_module
from repro.opt.stages import StageMemo
from repro.registry import MODELS
from repro.session import PlanCache, model_signature

ZOO = sorted(MODELS.names())
PRECISIONS = ("float32", "float16", "bfloat16")
#: What a sweep compiles per (model, dataset): the sweep-analytic set.
SWEEP_STRATEGIES = ("dgl-like", "fusegnn-like", "ours", "ours-stash")


def _configurations():
    """``(strategy, training)`` for every registered strategy at every
    precision: the training compile where the strategy trains, and the
    serving compile (``compile_forward``) for all of them."""
    out = []
    for name in list_strategies():
        for precision in PRECISIONS:
            strategy = replace(get_strategy(name), precision=precision)
            if strategy.supports_training:
                out.append((strategy, True))
            out.append((strategy, False))
    return out


def _drawn_stats(seed: int = 7) -> GraphStats:
    rng = np.random.default_rng(seed)
    V, E = 37, 151
    ind = rng.multinomial(E, np.full(V, 1.0 / V))
    outd = rng.multinomial(E, np.full(V, 1.0 / V))
    return GraphStats(V, E, ind, outd)


def _kernels(plan):
    return tuple(
        (tuple(node.name for node in k.nodes), k.mapping) for k in plan.kernels
    )


def _fingerprint(compiled, stats: GraphStats) -> tuple:
    """Everything the equivalence contract names, as plain values."""
    modules = [compiled.forward] + [plan.module for _, plan in compiled.phases()]
    stash = ()
    if hasattr(compiled, "training_graph"):
        modules.append(compiled.training_graph.backward)
        stash = tuple(compiled.stash)
    return (
        tuple(dumps_module(m) for m in modules),
        tuple(_kernels(plan) for _, plan in compiled.phases()),
        stash,
        tuple(
            (r.name, r.nodes_before, r.nodes_after, r.summary)
            for r in compiled.pass_records
        ),
        compiled.counters(stats),
    )


def _digest(value) -> tuple:
    """A memoised stage result as plain values: a module's text, a
    training graph's modules and tables, a partition's kernels."""
    if isinstance(value, Module):
        return ("module", dumps_module(value))
    if isinstance(value, TrainingGraph):
        return (
            "training_graph",
            dumps_module(value.forward),
            dumps_module(value.backward),
            tuple(value.saved_values),
            tuple(sorted(value.param_grads.items())),
        )
    return (
        "partition",
        tuple(
            (k.label, tuple(n.name for n in k.nodes), k.mapping, k.atomic,
             k.reduce_scatter)
            for k in value
        ),
    )


def _fresh(model, strategy, training):
    return (compile_training if training else compile_forward)(model, strategy)


# ======================================================================
class TestSharedEqualsFresh:
    @pytest.mark.parametrize("model_name", ZOO)
    def test_every_strategy_precision_and_order(self, model_name):
        stats = _drawn_stats()
        configurations = _configurations()
        model = MODELS.get(model_name)(8, 3)
        want = [
            _fingerprint(_fresh(model, strategy, training), stats)
            for strategy, training in configurations
        ]
        for order in (1, -1):
            cache = PlanCache(capacity=None)
            got = {}
            for i, (strategy, training) in list(enumerate(configurations))[::order]:
                compiled = cache.get_or_compile(model, strategy, training=training)
                got[i] = _fingerprint(compiled, stats)
            assert cache.misses == len(configurations)
            for i, (strategy, training) in enumerate(configurations):
                assert got[i] == want[i], (strategy.name, strategy.precision, training)


class TestStagesRunOnce:
    def test_sweep_strategies_share_every_stage(self, monkeypatch):
        calls = {"reorganize": 0, "differentiate": 0, "partition_kernels": 0}
        for name in calls:
            original = getattr(stages_module, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(stages_module, name, spy)
        builds = []
        for cls in {type(MODELS.get(name)(8, 3)) for name in ("gat", "gcn")}:
            original = cls.build_module

            def build(self, _original=original):
                builds.append(self)
                return _original(self)

            monkeypatch.setattr(cls, "build_module", build)

        cache = PlanCache()
        for name in ("gat", "gcn"):
            model = MODELS.get(name)(8, 3)
            for strategy in SWEEP_STRATEGIES:
                cache.get_or_compile(model, get_strategy(strategy))
        # Per model object: one naive module (the signature hashes it
        # too), one reorganisation, one backward, and seven partitions —
        # the forward under macro, edge_chains and unified (each probe
        # shares its strategy's or a sibling's), one backward each.
        assert len(builds) == 2
        assert calls == {
            "reorganize": 2, "differentiate": 2, "partition_kernels": 14,
        }

    def test_signature_hashes_the_memoised_module(self):
        model = MODELS.get("sage")(8, 3)
        memo = StageMemo()
        naive = memo.naive(model)
        assert memo.naive(model) is naive
        assert memo.naive(model, "bf16") is memo.naive(model, "bf16")
        assert model_signature(model, memo) == model_signature(
            MODELS.get("sage")(8, 3)
        )

    def test_identity_not_equality(self):
        # Two structurally equal modules are two inputs: each gets its
        # own result, and a result is never handed to the other.
        memo = StageMemo()
        a = memo.naive(MODELS.get("gat")(8, 3))
        b = memo.naive(MODELS.get("gat")(8, 3))
        assert dumps_module(a) == dumps_module(b)
        assert memo.differentiate(a) is memo.differentiate(a)
        assert memo.differentiate(a) is not memo.differentiate(b)
        assert memo.differentiate(b).forward is b

    def test_inputs_it_does_not_hold_are_not_kept(self):
        memo = StageMemo()
        built = MODELS.get("gat")(8, 3).build_module()
        assert memo.differentiate(built) is not memo.differentiate(built)
        assert memo.values() == []


class TestImmutableAndBounded:
    def test_no_stage_result_changes(self):
        stats = _drawn_stats()
        model = MODELS.get("gat")(8, 3)
        cache = PlanCache(capacity=None)
        memo = cache.stages(model)
        seen = {}
        for strategy, training in _configurations():
            compiled = cache.get_or_compile(model, strategy, training=training)
            compiled.counters(stats)
            if strategy.precision == "fp32":
                compiled.memory_plan(stats)
            for value in memo.values():
                digest = _digest(value)
                assert seen.setdefault(id(value), digest) == digest
        assert len(seen) == len(memo.values())

    def test_clear_empties_the_memo(self):
        model = MODELS.get("gcn")(8, 3)
        cache = PlanCache()
        cache.get_or_compile(model, get_strategy("ours"))
        memo = weakref.ref(cache.stages(model))
        naive = weakref.ref(cache.stages(model).naive(model))
        assert memo().values()
        cache.clear()
        gc.collect()
        assert memo() is None and naive() is None
        assert cache.stages(model).values() == []

    def test_recompiles_do_not_grow_the_memo(self):
        # Each compile splices a new backward; evicting and recompiling
        # the same model must not leave its partition behind.
        model = MODELS.get("gat")(8, 3)
        cache = PlanCache(capacity=1)
        sizes = []
        for _ in range(4):
            for strategy in SWEEP_STRATEGIES:
                cache.get_or_compile(model, get_strategy(strategy))
            sizes.append(len(cache.stages(model).values()))
        assert cache.evictions > 0
        assert sizes == sizes[:1] * 4

    def test_memo_dies_with_its_model(self):
        cache = PlanCache(capacity=2)
        memos = []
        for width in range(4, 40):
            model = MODELS.get("gcn")(width, 3)
            cache.get_or_compile(model, get_strategy("ours"))
            memos.append(weakref.ref(cache.stages(model)))
        del model
        gc.collect()
        # Only the models a resident plan still holds keep their memo.
        assert sum(m() is not None for m in memos) == len(cache) == 2

    def test_unreferenceable_model_compiles_on_a_fresh_memo(self):
        gat = MODELS.get("gat")(8, 3)

        class Unhashable(type(gat)):
            __hash__ = None

        model = object.__new__(Unhashable)
        model.__dict__.update(vars(gat))
        cache = PlanCache()
        assert cache.stages(model) is not cache.stages(model)
        compiled = cache.get_or_compile(model, get_strategy("ours"))
        assert dumps_module(compiled.forward) == dumps_module(
            compile_training(gat, get_strategy("ours")).forward
        )
