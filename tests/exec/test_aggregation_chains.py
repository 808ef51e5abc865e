"""Aggregation chains: recognition in the plan, execution in the engine
(contract clause 1d).

``copy_u → (× one weight per edge, or per edge and head) → sum | mean``
inside one kernel runs as one adjacency × dense product, and the
backward's ``reduce_to_shape(copy_v(a) * copy_u(b))`` as one
``u_dot_v`` step.  The per-node path still exists — it is what
reduced-precision and ``check_finite`` runs execute —
so :func:`tests.helpers.run_plan_per_node` is the oracle: every value a
run returns must equal it by ``tobytes()``, dtype and shape (a plan with
a *weighted* chain: wherever scipy does not fuse ``y += w * x``; within
the stated tolerance otherwise — a dot step is not weighted and is
exact everywhere).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.exec import Engine, MultiEngine, blocks, plan_module
from repro.frameworks import compile_training, get_strategy
from repro.graph import Graph, chung_lu
from repro.ir import Builder, Domain
from repro.registry import MODELS

from tests.helpers import (
    assert_same_values, backward_arrays, run_plan_per_node, training_values,
)

IN_DIM, NUM_CLASSES = 6, 4
STRATEGIES = ("dgl-like", "fusegnn-like", "ours", "ours-stash")


@pytest.fixture(scope="module")
def graph() -> Graph:
    return chung_lu(50, 250, seed=3)


def _isolated_graph() -> Graph:
    """Edges among the first 30 of 50 vertices, self-loops and parallel
    edges included: 20 vertices with no in- or out-edge, so every
    product has empty rows and every mean an empty segment."""
    rng = np.random.default_rng(4)
    src, dst = rng.integers(0, 30, 200), rng.integers(0, 30, 200)
    loops = np.arange(0, 30, 3)
    return Graph(
        np.concatenate([src, loops, src[:10]]),
        np.concatenate([dst, loops, dst[:10]]),
        50,
    )


@pytest.fixture(scope="module")
def graphs(graph) -> dict:
    """The differential's graphs by name."""
    return {"chung_lu": graph, "isolated": _isolated_graph()}


def _chains(plan):
    """The plan's distinct chains, in kernel order."""
    found = {}
    for i in range(len(plan.kernels)):
        found.update((id(c), c) for c in plan.chains(i).values())
    return list(found.values())


def _compiled(model_name, strategy="ours"):
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    return compile_training(MODELS.get(model_name)(IN_DIM, NUM_CLASSES), strategy)


def _arrays(compiled, graph):
    feats = np.random.default_rng(0).normal(size=(graph.num_vertices, IN_DIM))
    arrays = compiled.model.make_inputs(graph, feats.astype(np.float32))
    arrays.update(compiled.model.init_params(0))
    return arrays


def _training_differential(graph, compiled, engine, oracle, ctx, *, peaks=True):
    """Forward then backward: ``engine.run_plan`` vs the per-node loop."""
    arrays = _arrays(compiled, graph)
    for phase, plan in (("forward", compiled.fwd_plan), ("backward", compiled.bwd_plan)):
        got = engine.run_plan(plan, engine.bind(plan.module, arrays), unwrap=False)
        want, want_peak = run_plan_per_node(oracle, plan, oracle.bind(plan.module, arrays))
        assert_same_values(got, want, plan, f"{ctx}/{phase}")
        assert not peaks or engine.measured_peak_bytes == want_peak, f"{ctx}/{phase}"
        if phase == "forward":
            arrays = backward_arrays(compiled, arrays, got)


# ----------------------------------------------------------------------
# Recognition
# ----------------------------------------------------------------------
def _module(
    *, copy="copy_u", orientation="in", reduce="sum", weight_feat=(),
    weight_first=False, second_reader=False, feat=(3,),
):
    b = Builder("chain")
    x = b.input("x", Domain.VERTEX, feat)
    w = None if weight_feat is None else b.input("w", Domain.EDGE, weight_feat)
    msg = b.scatter(copy, **{copy[-1]: x}, name="msg")
    out = msg
    if w is not None:
        out = b.apply("mul", *((w, msg) if weight_first else (msg, w)), name="wmsg")
    agg = b.gather(reduce, out, orientation=orientation, name="agg")
    b.output(b.apply("neg", agg[0] if reduce == "max" else agg, name="y"))
    if second_reader:
        b.output(b.apply("exp", msg, name="also"))
    return b.build()


def _dot_module(*, target=None, b_dtype="float32", shared=True, v_first=True):
    """GAT's backward in miniature: ``dot = reduce_to_shape(copy_v(a) *
    copy_u(b))`` per edge and head and, when ``shared``, the out-edge
    aggregation ``sum(copy_v(a) * w)`` reading the same copy."""
    feat = (2, 3)
    b = Builder("dot")
    a = b.input("a", Domain.VERTEX, feat)
    u = b.input("b", Domain.VERTEX, feat, dtype=b_dtype)
    va = b.scatter("copy_v", v=a, name="va")
    ub = b.scatter("copy_u", u=u, name="ub")
    prod = b.apply("mul", *((va, ub) if v_first else (ub, va)), name="prod")
    dot = b.apply(
        "reduce_to_shape", prod, name="dot",
        attrs={"target_shape": feat[:-1] if target is None else target},
    )
    b.output(b.apply("neg", dot, name="y"))
    if shared:
        w = b.input("w", Domain.EDGE, feat[:1])
        agg = b.gather("sum", b.apply("mul", va, w, name="wva"), orientation="out", name="agg")
        b.output(b.apply("neg", agg, name="z"))
    return b.build()


class TestRecognition:
    #: Sum/mean gathers in the training plans, all of them chains.
    ZOO = {"gcn": 4, "sage": 3, "gin": 3, "rgcn": 12}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("model_name", sorted(ZOO))
    def test_every_sum_and_mean_gather_of_the_vertex_centric_models(
        self, model_name, strategy
    ):
        compiled = _compiled(model_name, strategy)
        plans = (compiled.fwd_plan, compiled.bwd_plan)
        chains = [c for plan in plans for c in _chains(plan)]
        gathers = [
            n for plan in plans for n in plan.module.nodes
            if n.kind.value == "gather" and n.fn in ("sum", "mean")
        ]
        assert len(chains) == len(gathers) == self.ZOO[model_name]
        assert {c.head.name for c in chains} == {n.name for n in gathers}
        weighted = model_name in ("gcn", "rgcn")
        assert all((c.weight is not None) == weighted for c in chains)
        # Chain-only kernels have nothing left to walk for.
        for plan in plans:
            for i in range(len(plan.kernels)):
                assert plan.blocked(i, True) is None

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("model_name, heads", [("gat", 4), ("monet", 2)])
    def test_per_head_weights_are_chains(self, model_name, heads, strategy):
        """Attention (gat) and gaussian (monet) weights hold one element
        per edge and head against ``(heads, f)`` messages.  Per layer the
        forward aggregates once; the backward aggregates the output
        gradient over out-edges and takes the attention gradient as a
        dot step, both reading one shared ``copy_v``."""
        compiled = _compiled(model_name, strategy)
        forward, backward = (_chains(p) for p in (compiled.fwd_plan, compiled.bwd_plan))
        assert [c.scatter for c in forward] == [None, None]
        assert sorted(str(c.scatter) for c in backward) == ["None"] * 2 + ["u_dot_v"] * 2
        for plan in (compiled.fwd_plan, compiled.bwd_plan):
            specs = plan.module.specs
            for i in range(len(plan.kernels)):
                chains = list({id(c): c for c in plan.chains(i).values()}.values())
                for chain in chains:
                    message = specs[chain.interior[0].outputs[0]].feat_shape
                    if chain.scatter is None:
                        assert specs[chain.weight].feat_shape == (heads,) == message[:1]
                        continue
                    copy_v = chain.interior[1]
                    assert copy_v.fn == "copy_v"
                    (sharer,) = [c for c in chains if copy_v in c.interior and c is not chain]
                    assert sharer.head.orientation == "out"

    def test_edge_functions_are_not_chains(self):
        """EdgeConv's messages are functions of both endpoints: nothing
        to take, so classification is what it was without chains."""
        for strategy in STRATEGIES:
            compiled = _compiled("edgeconv", strategy)
            for plan in (compiled.fwd_plan, compiled.bwd_plan):
                assert _chains(plan) == []
                for i in range(len(plan.kernels)):
                    assert plan.blocked(i, True) is plan.blocked(i)

    def test_single_head_attention_is_a_chain_inside_a_walk(self):
        """dotgat scales messages by one softmax weight per edge: the
        chain's weight is made in the walk, block by block."""
        plan = _compiled("dotgat").fwd_plan
        chains = _chains(plan)
        assert [c.head.name for c in chains] == ["l0_agg.0", "l1_agg.0"]
        for i in range(len(plan.kernels)):
            for name, chain in plan.chains(i).items():
                blocked = plan.blocked(i, True)
                steps = {s.node.name: s for s in blocked.steps}
                if name == chain.head.name:
                    assert steps[name].chain is chain
                    assert steps[name].whole == (True, False)
                    assert chain.weight not in blocked.edge_rows
                else:
                    assert name not in steps

    def test_a_dot_step_inside_a_walk_is_a_scatter_step(self):
        """dotgat's backward walks out-edge blocks for its softmax: the
        dot step reads its far operand (``copy_v``'s, the destinations)
        whole and its home operand per block, like ``u_dot_v``."""
        plan = _compiled("dotgat").bwd_plan
        for i in range(len(plan.kernels)):
            dots = {id(c): c for c in plan.chains(i).values() if c.scatter}.values()
            if not dots:
                continue
            blocked = plan.blocked(i, True)
            assert blocked.orientation == "out"
            steps = {s.node.name: s for s in blocked.steps}
            for dot in dots:
                assert steps[dot.head.name].whole == (False, True)
                assert all(n.name not in steps for n in dot.interior)
                home = dot.operands[0]
                assert home in blocked.home_rows or home in steps

    @pytest.mark.parametrize("reduce", ["sum", "mean"])
    @pytest.mark.parametrize("weight_first", [False, True])
    @pytest.mark.parametrize("feat, weight_feat", [
        ((3,), None), ((3,), ()), ((3,), (1,)), ((3,), (3,)),
        ((2, 3), (2,)), ((2, 3), (2, 1)), ((2, 3), (2, 3)),
    ])
    @pytest.mark.parametrize(
        "copy, orientation", [("copy_u", "in"), ("copy_v", "out")]
    )
    def test_shapes_that_match(
        self, copy, orientation, feat, weight_feat, weight_first, reduce
    ):
        module = _module(
            copy=copy, orientation=orientation, reduce=reduce, feat=feat,
            weight_feat=weight_feat, weight_first=weight_first,
        )
        plan = plan_module(module, mode="unified")
        (chain,) = _chains(plan)
        assert chain.head.name == "agg" and chain.operands[0] == "x"
        assert chain.weight == (None if weight_feat is None else "w")
        assert chain.scatter is None
        assert [n.name for n in chain.interior] == (
            ["msg"] if weight_feat is None else ["msg", "wmsg"]
        )
        members = {n.name for n in chain.interior} | {"agg"}
        assert set(plan.chains(0)) == members
        assert plan.chains(0) is plan.chains(0)

    @pytest.mark.parametrize("v_first", [True, False])
    @pytest.mark.parametrize("shared", [True, False])
    def test_dot_steps_that_match(self, shared, v_first):
        plan = plan_module(_dot_module(shared=shared, v_first=v_first), mode="unified")
        assert len(plan.kernels) == 1
        chains = plan.chains(0)
        dot = chains["dot"]
        assert dot.head.name == "dot" and dot.scatter == "u_dot_v"
        assert dot.operands == ("b", "a") and dot.weight is None  # u=b, v=a
        assert [n.name for n in dot.interior] == ["ub", "va", "prod"]
        if shared:
            agg = chains["agg"]
            assert agg.weight == "w" and [n.name for n in agg.interior] == ["va", "wva"]
            assert set(chains) == {"dot", "ub", "va", "prod", "agg", "wva"}
        else:
            assert set(chains) == {"dot", "ub", "va", "prod"}

    @pytest.mark.parametrize("refusal", [
        "stashed", "second_reader", "home_endpoint", "weight_reshapes_message",
        "weight_not_a_prefix", "max", "per_op",
    ])
    def test_refusals(self, refusal):
        keep, mode, kwargs = (), "unified", {}
        if refusal == "stashed":
            keep = ("wmsg",)
        elif refusal == "second_reader":
            # The far copy is also read by an ``exp`` no chain holds.
            kwargs = {"second_reader": True}
        elif refusal == "home_endpoint":
            kwargs = {"copy": "copy_v"}  # summed over in-edges: degree · x
        elif refusal == "weight_reshapes_message":
            # (E, 1, 1) against (E, 3) right-pads the message to (E, 3, 1).
            kwargs = {"weight_feat": (1, 1)}
        elif refusal == "weight_not_a_prefix":
            # (E, 1, 3) against (E, 3, 3) is per feature, not per head.
            kwargs = {"feat": (3, 3), "weight_feat": (1, 3)}
        elif refusal == "max":
            kwargs = {"reduce": "max", "weight_feat": None}
        elif refusal == "per_op":
            mode = "per_op"  # the intermediates cross kernel boundaries
        module = _module(**kwargs)
        plan = plan_module(module, mode=mode, keep=keep)
        assert all(plan.chains(i) == {} for i in range(len(plan.kernels)))

    def test_a_copy_read_as_a_weight_is_no_chains_interior(self, graph):
        """``sum(copy_u(x) * copy_u(y))`` takes ``copy_u(y)`` as its
        full-shape weight, so ``sum(copy_u(y))`` may not skip building
        it: that chain is refused, the weighted one stands."""
        b = Builder("weight-copy")
        x = b.input("x", Domain.VERTEX, (3,))
        y = b.input("y", Domain.VERTEX, (3,))
        cy = b.scatter("copy_u", u=y, name="cy")
        weighted = b.gather("sum", b.apply("mul", b.scatter("copy_u", u=x), cy), name="a")
        plain = b.gather("sum", cy, name="p")
        b.output(b.apply("add", weighted, plain, name="out"))
        module = b.build()
        plan = plan_module(module, mode="unified")
        (chain,) = _chains(plan)
        assert chain.head.name == "a" and chain.weight == "cy"
        rng = np.random.default_rng(3)
        arrays = {n: rng.normal(size=(graph.num_vertices, 3)) for n in ("x", "y")}
        engine, oracle = Engine(graph), Engine(graph)
        got = engine.run_plan(plan, engine.bind(module, arrays), unwrap=False)
        want, _ = run_plan_per_node(oracle, plan, oracle.bind(module, arrays))
        assert_same_values(got, want, plan, "weight-copy")

    @pytest.mark.parametrize("target", [(), (2, 1)])
    def test_a_dot_summing_more_than_the_trailing_axis_is_refused(self, target):
        """And the aggregation sharing its copy goes with it: the copy
        now has a reader outside every chain."""
        plan = plan_module(_dot_module(target=target), mode="unified")
        assert plan.chains(0) == {}
        alone = plan_module(_dot_module(target=target, shared=False), mode="unified")
        assert alone.chains(0) == {}

    def test_mixed_storage_dtypes_are_refused(self):
        b = Builder("mixed")
        x = b.input("x", Domain.VERTEX, (3,))
        w = b.input("w", Domain.EDGE, (), dtype="float64")
        b.output(b.gather("sum", b.apply("mul", b.scatter("copy_u", u=x), w)))
        plan = plan_module(b.build(), mode="unified")
        assert plan.chains(0) == {}
        plan = plan_module(_dot_module(b_dtype="float64", shared=False), mode="unified")
        assert plan.chains(0) == {}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class TestChainVsNode:
    """Whole training plans, chains taken, against the per-node loop."""

    @pytest.mark.parametrize("graph_name", ["chung_lu", "isolated"])
    @pytest.mark.parametrize("engine_precision", ["float32", "float64"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_bit_identical(
        self, products, graphs, model_name, strategy, engine_precision, graph_name
    ):
        graph = graphs[graph_name]
        compiled = _compiled(model_name, strategy)
        engine = Engine(graph, precision=engine_precision)
        oracle = Engine(graph, precision=engine_precision)
        _training_differential(
            graph, compiled, engine, oracle,
            f"{model_name}/{strategy}/{engine_precision}/{graph_name}",
        )
        # Every chain ran, once, as one step on the whole graph.
        chains = _chains(compiled.fwd_plan) + _chains(compiled.bwd_plan)
        assert [chain for _, chain in products] == chains
        assert all(layout is graph for layout, _ in products)

    @pytest.mark.parametrize("weight_in_walk", [False, True])
    @pytest.mark.parametrize("orientation", ["in", "out"])
    def test_a_chain_is_one_step_of_a_walk(
        self, monkeypatch, products, graph, orientation, weight_in_walk
    ):
        """A kernel that walks for another edge tensor runs its chain
        per block: far operand whole, weight a kernel input (sliced per
        block) or made inside the walk (already block-local)."""
        copy = "copy_u" if orientation == "in" else "copy_v"
        b = Builder("walked")
        x = b.input("x", Domain.VERTEX, (3,))
        w = b.input("w", Domain.EDGE, ())
        e = b.scatter("u_dot_v", u=x, v=x)
        other = b.gather("sum", b.apply("exp", e), orientation=orientation)
        weight = b.apply("tanh", e) if weight_in_walk else w
        msg = b.apply("mul", b.scatter(copy, **{copy[-1]: x}), weight)
        agg = b.gather("mean", msg, orientation=orientation, name="agg")
        b.output(b.apply("add", agg, other, name="y"))
        module = b.build()
        plan = plan_module(module, mode="unified")
        assert len(plan.kernels) == 1 and len(_chains(plan)) == 1
        blocked = plan.blocked(0, True)
        assert blocked is not None and blocked.orientation == orientation
        assert ("w" in blocked.edge_rows) == (not weight_in_walk)
        rng = np.random.default_rng(1)
        arrays = {
            "x": rng.normal(size=(graph.num_vertices, 3)),
            "w": rng.normal(size=graph.num_edges),
        }
        monkeypatch.setattr(blocks, "BLOCK_BYTES", 128)
        for precision in ("float32", "float64"):
            del products[:]
            engine, oracle = Engine(graph, precision=precision), Engine(graph, precision=precision)
            got = engine.run_plan(plan, engine.bind(module, arrays), unwrap=False)
            want, _ = run_plan_per_node(oracle, plan, oracle.bind(module, arrays))
            assert_same_values(got, want, plan, f"walked/{precision}")
            assert len(products) >= 4  # one product per block

    @pytest.mark.parametrize("orientation", ["in", "out"])
    def test_a_dot_step_is_one_step_of_a_walk(
        self, monkeypatch, products, graph, orientation
    ):
        """A kernel that walks for its softmax-like tail runs the dot
        step per block: the far operand whole, the home one sliced."""
        b = Builder("walked-dot")
        a = b.input("a", Domain.VERTEX, (2, 3))
        u = b.input("b", Domain.VERTEX, (2, 3))
        prod = b.apply("mul", b.scatter("copy_v", v=a), b.scatter("copy_u", u=u))
        dot = b.apply("reduce_to_shape", prod, attrs={"target_shape": (2,)}, name="dot")
        tail = b.gather("sum", b.apply("exp", dot), orientation=orientation)
        b.output(b.apply("neg", tail, name="y"))
        module = b.build()
        plan = plan_module(module, mode="unified")
        (chain,) = _chains(plan)
        assert chain.scatter == "u_dot_v"
        blocked = plan.blocked(0, True)
        assert blocked is not None and blocked.orientation == orientation
        rng = np.random.default_rng(2)
        arrays = {
            "a": rng.normal(size=(graph.num_vertices, 2, 3)),
            "b": rng.normal(size=(graph.num_vertices, 2, 3)),
        }
        monkeypatch.setattr(blocks, "BLOCK_BYTES", 128)
        for precision in ("float32", "float64"):
            del products[:]
            engine, oracle = Engine(graph, precision=precision), Engine(graph, precision=precision)
            got = engine.run_plan(plan, engine.bind(module, arrays), unwrap=False)
            want, _ = run_plan_per_node(oracle, plan, oracle.bind(module, arrays))
            assert_same_values(got, want, plan, f"walked-dot/{precision}")
            assert len(products) >= 4 and all(c is chain for _, c in products)

    @pytest.mark.parametrize("model_name", ["gcn", "gat"])
    def test_multi_engine_shards_take_the_chains(self, products, graph, model_name):
        """Each shard runs every chain as one step: an in-edge
        aggregation or a dot step on its in-graph, an out-edge
        aggregation (the backward's ``copy_v · w → sum``) on its
        out-graph."""
        compiled = _compiled(model_name)
        feats = np.random.default_rng(0).normal(size=(graph.num_vertices, IN_DIM))
        multi = MultiEngine(graph, 3)
        training_values(multi, compiled, feats, compiled.model.init_params(0))
        chains = _chains(compiled.fwd_plan) + _chains(compiled.bwd_plan)
        out = [c for c in chains if c.scatter is None and c.head.orientation == "out"]
        assert out and len(out) < len(chains)
        parts = multi.partition.parts
        assert [id(c) for _, c in products] == [id(c) for c in chains for _ in parts]
        assert [id(g) for g, _ in products] == [
            id(part.out_graph if c in out else part.in_graph) for c in chains for part in parts
        ]


class TestFallbacks:
    """Runs that round or look at the node boundaries a chain removes
    execute every node — exactly what they executed before chains
    existed."""

    @pytest.mark.parametrize("precision", ["fp16", "bf16", "int8"])
    @pytest.mark.parametrize("model_name", ["gcn", "sage"])
    def test_narrow_storage_runs_every_node(
        self, monkeypatch, products, graph, model_name, precision
    ):
        # Small blocks: the fallback is the *walked* per-node path.
        monkeypatch.setattr(blocks, "BLOCK_BYTES", 128)
        compiled = _compiled(
            model_name, replace(get_strategy("ours"), precision=precision)
        )
        _training_differential(
            graph, compiled, Engine(graph), Engine(graph), f"{model_name}/{precision}"
        )
        assert products == []
        # A float64 engine casts every float and simulates no storage:
        # nothing is rounded at a node boundary, so chains run.
        _training_differential(
            graph, compiled, Engine(graph, precision="float64"),
            Engine(graph, precision="float64"), f"{model_name}/{precision}/float64",
        )
        assert products != []

    def test_check_finite_names_the_interior_node(self, products, graph):
        compiled = _compiled("gcn")
        plan = compiled.fwd_plan
        arrays = _arrays(compiled, graph)
        arrays["gcn_norm"] = arrays["gcn_norm"].copy()
        arrays["gcn_norm"][7] = np.inf
        (first, *_) = _chains(plan)
        engine = Engine(graph, check_finite=True)
        with pytest.raises(FloatingPointError) as failure:
            engine.run_plan(plan, engine.bind(plan.module, arrays))
        # The multiply made the first non-finite value; with the chain
        # taken it would never have run.
        assert f"node {first.interior[-1].name!r} (apply:mul)" in str(failure.value)
        assert products == []
        # Without the check the same engine takes the chain.
        engine.check_finite = False
        engine.run_plan(plan, engine.bind(plan.module, arrays))
        assert len(products) == len(_chains(plan))

    @pytest.mark.parametrize("model_name", ["gcn", "sage", "dotgat", "gat", "monet"])
    def test_arena_backed_runs_take_the_chain(self, products, graph, model_name):
        compiled = _compiled(model_name)
        plans = compiled.memory_plan(graph.stats())
        _training_differential(
            graph, compiled, Engine(graph, memory_plan=plans), Engine(graph),
            f"{model_name}/arena", peaks=False,  # the arena pins its inputs
        )
        assert len(products) == len(
            _chains(compiled.fwd_plan) + _chains(compiled.bwd_plan)
        )

    @pytest.mark.parametrize("precision", ["fp16", "bf16", "int8"])
    def test_narrow_storage_shards_run_every_node(self, products, graph, precision):
        compiled = _compiled("gat", replace(get_strategy("ours"), precision=precision))
        feats = np.random.default_rng(0).normal(size=(graph.num_vertices, IN_DIM))
        training_values(
            MultiEngine(graph, 3), compiled, feats, compiled.model.init_params(0)
        )
        assert products == []
