"""Rings: the rows each node of a plan computes when the caller reads
only its outputs' rows at hop distance 0 (README clause 3b).

``repro.exec.rings.ring_depths`` walks back from the outputs;
``Engine.run_plan(distance=)`` runs each node on its ring of the field,
a prefix of the hop-ordered rows.  The rules are pinned on hand-built
modules, ``receptive_hops`` (the walk read at the vertex inputs) is
held to the forward relaxation it replaced, and ring runs are held to
whole-field runs: every output's ring-0 rows and every keep-set value
whole, by ``tobytes()``, over the zoo, the strategies, both engine
precisions and arena plans.
"""

import numpy as np
import pytest

from repro.exec.engine import Engine
from repro.exec.plan import plan_module
from repro.exec.rings import WHOLE, receptive_hops, ring_depths
from repro.frameworks import compile_forward, compile_training, get_strategy
from repro.frameworks.registry import list_strategies
from repro.graph.generators import chung_lu
from repro.ir import Builder, Domain
from repro.models import GraphSAGE
from repro.registry import MODELS
from repro.serve import receptive_field
from tests.helpers import forward_receptive_hops

STRATEGIES = ("dgl-like", "fusegnn-like", "ours", "ours-stash")


def _two_layers(edge_weight: bool = False):
    """linear → copy_u → sum → relu → u_add_v → sum; optionally both
    layers weighted by one edge input."""
    b = Builder("m")
    h = b.input("h", Domain.VERTEX, (4,))
    weight = b.input("w_e", Domain.EDGE, (1,)) if edge_weight else None
    x = b.linear(h, b.param("w", (4, 4)), name="x")
    m = b.scatter("copy_u", u=x, name="m")
    if weight is not None:
        m = b.apply("mul", m, weight, name="m_w")
    a = b.gather("sum", m, name="a")
    r = b.apply("relu", a, name="r")
    m2 = b.scatter("u_add_v", u=r, v=r, name="m2")
    if weight is not None:
        m2 = b.apply("mul", m2, weight, name="m2_w")
    b.output(b.gather("sum", m2, name="out"))
    return b.build()


class TestRules:
    def test_a_scatter_source_is_one_ring_out(self):
        ring = ring_depths(_two_layers())
        assert ring["out"] == ring["m2"] == 0
        # r is read as u_add_v's source (ring 1) and destination (ring 0).
        assert ring["r"] == ring["a"] == ring["m"] == 1
        assert ring["x"] == ring["h"] == 2
        assert receptive_hops(_two_layers()) == 2

    def test_an_edge_input_lives_on_its_largest_reader(self):
        ring = ring_depths(_two_layers(edge_weight=True))
        assert ring["m2_w"] == 0 and ring["m_w"] == 1
        assert ring["w_e"] == 1

    def test_out_gathers_and_keep_read_every_row(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        e = b.scatter("copy_v", v=h, name="e")
        b.output(b.gather("sum", e, orientation="out", name="out"))
        module = b.build()
        ring = ring_depths(module)
        assert ring["out"] == ring["e"] == ring["h"] == WHOLE
        assert receptive_hops(module) == WHOLE
        assert forward_receptive_hops(module) == 1  # the relaxation's guess

        module = _two_layers()
        assert ring_depths(module, keep={"r"})["r"] == WHOLE
        assert ring_depths(module, keep={"r"})["x"] == WHOLE

    def test_a_read_argmax_is_whole(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        e = b.scatter("copy_u", u=h, name="e")
        mx, arg = b.gather("max", e, name="mx")
        b.output(mx)
        assert ring_depths(b.build())["mx"] == 0
        assert ring_depths(b.build(), keep={arg.name})["mx"] == WHOLE

    def test_edge_outputs_are_whole(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        b.output(b.scatter("u_add_v", u=h, v=h, name="e"))
        assert ring_depths(b.build())["e"] == WHOLE


class TestReceptiveHops:
    """The walk read at the vertex inputs equals the forward relaxation
    on every zoo module — forward and training forwards alike."""

    @staticmethod
    def _check(name, strategy):
        strat = get_strategy(strategy)
        compiled = [compile_forward(MODELS.get(name)(8, 3), strat)]
        if strat.supports_training:
            compiled.append(compile_training(MODELS.get(name)(8, 3), strat))
        for c in compiled:
            assert receptive_hops(c.forward) == forward_receptive_hops(c.forward)

    @pytest.mark.parametrize("name", MODELS.names())
    def test_zoo(self, name):
        self._check(name, "ours")

    @pytest.mark.slow
    @pytest.mark.parametrize("strategy", list_strategies())
    @pytest.mark.parametrize("name", MODELS.names())
    def test_zoo_every_strategy(self, name, strategy):
        self._check(name, strategy)

    def test_three_layer_sage(self):
        c = compile_forward(GraphSAGE(6, (8, 8, 3)), get_strategy("ours"))
        assert receptive_hops(c.forward) == 3


@pytest.fixture(scope="module")
def field():
    """A 2-hop field of a few seeds: small inner rings, a full outer one."""
    graph = chung_lu(400, 1600, seed=4).add_self_loops()
    mb = receptive_field(graph, np.array([3, 50, 177]), 2)
    assert mb.distance.max() == 2 and (mb.distance == 0).sum() == 3
    return mb


def _compare(compiled, plan, mb, precision, arena, rng, keep=()):
    model = compiled.model
    arrays = model.make_inputs(
        mb.subgraph, rng.normal(size=(mb.subgraph.num_vertices, 6))
    )
    arrays.update(model.init_params(0))
    memory_plan = (
        compiled.memory_plan(mb.subgraph.stats()) if arena else None
    )
    engine = Engine(mb.subgraph, precision=precision, memory_plan=memory_plan)
    env = engine.bind(compiled.forward, arrays)
    whole = engine.run_plan(plan, env)
    rings = engine.run_plan(plan, env, distance=mb.distance)
    seeds = mb.num_seeds
    for name in compiled.forward.outputs:
        assert rings[name].shape[0] in (seeds, mb.field_size), name
        assert rings[name][:seeds].tobytes() == whole[name][:seeds].tobytes(), name
    for name in keep:
        assert rings[name].tobytes() == whole[name].tobytes(), name


class TestRingRuns:
    # Arena plans run at the accounting precision only.
    @pytest.mark.parametrize(
        "precision, arena",
        (("float32", False), ("float64", False), ("float32", True)),
    )
    # dgl-like edgeconv projects each edge: a BLAS product on edge rows.
    @pytest.mark.parametrize("name, strategy", (
        ("gat", "ours"), ("gcn", "ours"), ("sage", "ours"),
        ("edgeconv", "dgl-like"),
    ))
    def test_seed_rows_equal_the_whole_field_run(
        self, field, name, strategy, precision, arena, rng
    ):
        compiled = compile_forward(MODELS.get(name)(6, 3), get_strategy(strategy))
        _compare(compiled, compiled.plan, field, precision, arena, rng)

    @pytest.mark.slow
    @pytest.mark.parametrize("arena", (False, True))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", MODELS.names())
    def test_zoo_every_strategy(self, field, name, strategy, arena, rng):
        compiled = compile_forward(MODELS.get(name)(6, 3), get_strategy(strategy))
        for precision in ("float32",) if arena else ("float32", "float64"):
            _compare(compiled, compiled.plan, field, precision, arena, rng)

    @pytest.mark.parametrize("strategy", ("ours", "ours-stash"))
    def test_the_stash_comes_back_whole(self, field, strategy, rng):
        """A training forward's keep set is read whole by its caller."""
        compiled = compile_training(MODELS.get("gat")(6, 3), get_strategy(strategy))
        plan = compiled.fwd_plan
        keep = sorted(set(plan.result_names()) - set(compiled.forward.outputs))
        assert keep
        _compare(compiled, plan, field, "float64", False, rng, keep=keep)

    @pytest.mark.parametrize("mode", ("per_op", "unified"))
    def test_an_edge_value_read_on_two_rings(self, field, mode, rng):
        """A computed edge weight both layers read lives on ring 1; the
        last layer takes ring 0's edges out of it."""
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        weight = b.apply("exp", b.input("e", Domain.EDGE, (1,)), name="weight")
        x = b.linear(h, b.param("w", (4, 4)))
        r = b.apply("relu", b.gather("sum", b.apply("mul", b.scatter("copy_u", u=x), weight)))
        b.output(b.gather("sum", b.apply("mul", b.scatter("copy_u", u=r), weight), name="out"))
        module = b.build()
        plan = plan_module(module, mode=mode)
        assert plan.rings()["weight"] == 1
        sub = field.subgraph
        engine = Engine(sub, precision="float64")
        env = engine.bind(module, {
            "h": rng.normal(size=(sub.num_vertices, 4)),
            "e": rng.normal(size=(sub.num_edges, 1)),
            "w": rng.normal(size=(4, 4)),
        })
        whole = engine.run_plan(plan, env)["out"]
        rings = engine.run_plan(plan, env, distance=field.distance)["out"]
        assert rings.tobytes() == whole[: field.num_seeds].tobytes()

    def test_a_ring_output_holds_its_rings_rows(self, field, rng):
        """The last layer runs on ring 0: the seeds' rows, the first of
        the hop-ordered field, and no others."""
        compiled = compile_forward(MODELS.get("gat")(6, 3), get_strategy("ours"))
        plan = compiled.plan
        out = compiled.forward.outputs[0]
        assert plan.rings()[out] == 0
        arrays = compiled.model.make_inputs(
            field.subgraph, rng.normal(size=(field.subgraph.num_vertices, 6))
        )
        arrays.update(compiled.model.init_params(0))
        engine = Engine(field.subgraph)
        got = engine.run_plan(
            plan, engine.bind(compiled.forward, arrays), distance=field.distance
        )[out]
        assert got.shape == (field.num_seeds, 3)
        assert field.vertices[: field.num_seeds].tolist() == [3, 50, 177]

    def test_a_field_of_seeds_alone_runs_whole(self, rng):
        graph = chung_lu(60, 200, seed=1)
        mb = receptive_field(graph, np.array([5, 9]), 0)
        assert not mb.distance.any()
        compiled = compile_forward(MODELS.get("sage")(6, 3), get_strategy("ours"))
        _compare(compiled, compiled.plan, mb, "float32", False, rng)

    def test_distance_must_cover_the_graph(self, field):
        compiled = compile_forward(MODELS.get("sage")(6, 3), get_strategy("ours"))
        engine = Engine(field.subgraph)
        arrays = compiled.model.make_inputs(
            field.subgraph, np.zeros((field.subgraph.num_vertices, 6))
        )
        arrays.update(compiled.model.init_params(0))
        env = engine.bind(compiled.forward, arrays)
        with pytest.raises(ValueError, match="one hop count per vertex"):
            engine.run_plan(compiled.plan, env, distance=field.distance[:-1])
        with pytest.raises(ValueError, match="must not decrease"):
            engine.run_plan(compiled.plan, env, distance=field.distance[::-1])
