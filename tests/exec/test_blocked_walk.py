"""The endpoint-blocked walk vs the per-node walk (contract clause 1c).

A fused kernel that owns kernel-internal edge tensors executes as one
walk over blocks of home rows; the per-node path still exists (it is
what every other kernel runs, and what ``MultiEngine`` drives), so it is
the oracle.  With ``BLOCK_BYTES`` shrunk until the test graphs split
into many blocks, everything a run returns and measures must equal the
node-by-node loop in :func:`tests.helpers.run_plan_per_node` — by
``tobytes()``, dtype and shape.  Edge tensors that belong to an
aggregation chain (clause 1d, ``tests/exec/test_aggregation_chains.py``)
are never built, so a kernel owning no others has nothing to walk for:
a fused model must walk or run chains, never neither.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.exec import Engine, blocks, plan_module
from repro.exec.blocks import segment_blocks
from repro.frameworks import compile_training, get_strategy
from repro.graph import Graph, chung_lu
from repro.ir import Builder, Domain
from repro.ir.precision import PRECISIONS
from repro.registry import MODELS

from tests.helpers import assert_same_values, backward_arrays, run_plan_per_node

IN_DIM, NUM_CLASSES = 6, 4
STRATEGIES = ("dgl-like", "fusegnn-like", "ours", "ours-stash")
#: Small enough that chung_lu(50, 250) splits into >= 4 blocks even for
#: a kernel whose widest live set is a single float32 scalar per edge.
SMALL_BLOCK = 128
#: Block budgets of the differential: ``small`` packs several segments
#: per block; ``segment`` (one byte: one row per block) gives every
#: segment a block of its own, the hubs' past the budget.
BUDGETS = {"small": SMALL_BLOCK, "segment": 1}


@pytest.fixture(scope="module")
def graph() -> Graph:
    return chung_lu(50, 250, seed=3)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(blocks, "BLOCK_BYTES", SMALL_BLOCK)


def _blocks(indptr, rows_per_block):
    return list(segment_blocks(np.asarray(indptr, dtype=np.int64), rows_per_block))


class TestSegmentBlocks:
    """The one definition of a block, the walk's."""

    def test_partitions_segments_and_rows(self, graph):
        indptr = graph.csc_indptr
        for rows in (1, 7, 40, 10_000):
            blocks = _blocks(indptr, rows)
            assert blocks[0][0] == 0 and blocks[-1][1] == graph.num_vertices
            for (_, hi, _, p1), (lo, _, p0, _) in zip(blocks, blocks[1:]):
                assert hi == lo and p1 == p0
            for lo, hi, p0, p1 in blocks:
                assert hi > lo
                assert (p0, p1) == (indptr[lo], indptr[hi])
                # Over budget only when one segment alone is.
                assert p1 - p0 <= rows or hi == lo + 1

    def test_zero_edges_is_one_block(self):
        assert _blocks([0, 0, 0, 0], 4) == [(0, 3, 0, 0)]

    def test_trailing_empty_vertices_join_the_last_block(self):
        # 2 + 2 edges, then three vertices without any.
        assert _blocks([0, 2, 4, 4, 4, 4], 2) == [(0, 1, 0, 2), (1, 5, 2, 4)]

    def test_oversized_segment_is_its_own_block(self):
        assert _blocks([0, 1, 9, 10], 3) == [(0, 1, 0, 1), (1, 2, 1, 9), (2, 3, 9, 10)]

    def test_budget_below_one_row_advances_a_segment_at_a_time(self):
        # A 1-byte budget divides to zero rows per block.
        assert _blocks([0, 2, 2, 5], 0) == [(0, 1, 0, 2), (1, 2, 2, 2), (2, 3, 2, 5)]


class TestRowBlock:
    @pytest.mark.parametrize("orientation", ["in", "out"])
    def test_block_is_the_graph_restricted_to_home_rows(self, graph, orientation):
        home, far = (
            (graph.dst, graph.src) if orientation == "in" else (graph.src, graph.dst)
        )
        prefix, home_ids, far_ids = (
            ("csc", "dst", "src") if orientation == "in" else ("csr", "src", "dst")
        )
        for lo, hi in ((0, 1), (3, 17), (17, 50), (0, 50)):
            block = graph.row_block(orientation, lo, hi)
            want = np.nonzero((home >= lo) & (home < hi))[0]
            # Same edges, grouped by home vertex, ascending edge id within.
            want = want[np.argsort(home[want], kind="stable")]
            assert np.array_equal(block.eids, want)
            assert np.array_equal(getattr(block, far_ids), far[want])
            assert np.array_equal(getattr(block, home_ids), home[want] - lo)
            indptr = getattr(block, f"{prefix}_indptr")
            assert indptr[0] == 0 and indptr[-1] == block.num_edges == want.size
            assert np.array_equal(np.diff(indptr), np.bincount(home[want] - lo, minlength=hi - lo))
            assert np.array_equal(getattr(block, f"{prefix}_eids"), np.arange(want.size))
            assert block.num_vertices == hi - lo


def _training_arrays(compiled, graph, dtype=np.float32):
    feats = np.random.default_rng(0).normal(size=(graph.num_vertices, IN_DIM))
    arrays = compiled.model.make_inputs(graph, feats.astype(dtype))
    arrays.update(compiled.model.init_params(0))
    return arrays


@pytest.fixture
def walks(monkeypatch):
    """Every ``Engine._walk`` call of the test, as ``(blocked, rows_per_block)``."""
    calls = []
    walk = Engine._walk

    def spy(self, run, bound):
        calls.append((bound.blocked, bound.rows_per_block))
        return walk(self, run, bound)

    monkeypatch.setattr(Engine, "_walk", spy)
    return calls


def _differential(graph, model_name, strategy, engine_precision):
    model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
    compiled = compile_training(model, strategy)
    engine = Engine(graph, precision=engine_precision)
    oracle = Engine(graph, precision=engine_precision)
    arrays = _training_arrays(compiled, graph)
    ctx = f"{model_name}/{strategy.name}/{strategy.precision}/{engine_precision}"
    for phase, plan in (("forward", compiled.fwd_plan), ("backward", compiled.bwd_plan)):
        got = engine.run_plan(plan, engine.bind(plan.module, arrays), unwrap=False)
        want, want_peak = run_plan_per_node(oracle, plan, oracle.bind(plan.module, arrays))
        assert_same_values(got, want, plan, f"{ctx}/{phase}")
        assert engine.measured_peak_bytes == want_peak, f"{ctx}/{phase}"
        if phase == "forward":
            arrays = backward_arrays(compiled, arrays, got)
    return compiled


class TestBlockVsNode:
    """Every zoo model × strategy × precision × block budget, forward
    and backward, with the graph split into many blocks."""

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("engine_precision", ["float32", "float64"])
    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_bit_identical(
        self, monkeypatch, walks, products, graph, model_name, strategy_name,
        engine_precision, budget,
    ):
        monkeypatch.setattr(blocks, "BLOCK_BYTES", BUDGETS[budget])
        for precision in PRECISIONS:
            strategy = replace(get_strategy(strategy_name), precision=precision)
            del walks[:], products[:]
            compiled = _differential(graph, model_name, strategy, engine_precision)
            if strategy_name == "dgl-like" and model_name == "edgeconv":
                continue  # no fused kernel at all
            # Fused edge tensors are walked or, inside a chain, never
            # built; a run doing neither materialised them whole.
            assert walks or products, (
                f"{precision}: no kernel walked and no chain ran: the test is vacuous"
            )
            # Narrow storage rounds at node boundaries, so a float32
            # engine runs every node there and walks as it did before
            # chains; otherwise exactly the kernels classification
            # leaves something to walk for are walked.
            taken = engine_precision == "float64" or precision == "fp32"
            plans = (compiled.fwd_plan, compiled.bwd_plan)
            assert [blocked for blocked, _ in walks] == [
                p.blocked(i, taken) for p in plans for i in range(len(p.kernels))
                if p.blocked(i, taken) is not None
            ]
            assert bool(products) == (
                taken and any(p.chains(i) for p in plans for i in range(len(p.kernels)))
            )
            for blocked, rows_per_block in walks:
                indptr = (
                    graph.csc_indptr if blocked.orientation == "in"
                    else graph.csr_indptr
                )
                assert len(_blocks(indptr, rows_per_block)) >= 4

    def test_single_block_graphs_keep_the_node_path(self, walks, graph):
        # At the real BLOCK_BYTES a 250-edge graph is one block: the
        # walk would only add copies, so the kernel runs node by node.
        _differential(graph, "gat", get_strategy("ours"), "float32")
        assert walks == []

    def test_cached_blocks_follow_the_block_budget(self, monkeypatch):
        """Blocks are cached on the graph by (orientation, lo, hi): a
        re-run re-uses them, a changed ``BLOCK_BYTES`` cuts fresh ones,
        and both runs equal the per-node path."""
        graph = chung_lu(50, 250, seed=3)  # own graph: own, empty cache
        compiled = compile_training(
            MODELS.get("gat")(IN_DIM, NUM_CLASSES), get_strategy("ours")
        )
        plan = compiled.fwd_plan
        engine, oracle = Engine(graph), Engine(graph)
        arrays = _training_arrays(compiled, graph)
        want, _ = run_plan_per_node(oracle, plan, oracle.bind(plan.module, arrays))
        cached = []
        for budget in (SMALL_BLOCK, 4 * SMALL_BLOCK, SMALL_BLOCK):
            monkeypatch.setattr(blocks, "BLOCK_BYTES", budget)
            got = engine.run_plan(plan, engine.bind(plan.module, arrays), unwrap=False)
            assert_same_values(got, want, plan, f"gat/budget={budget}")
            cached.append({k: v for k, v in graph._cache.items() if k[0] == "row_block"})
        small, both, again = cached
        assert small and set(small) < set(both)
        assert all(both[k] is small[k] for k in small)
        assert again.keys() == both.keys()
        assert all(again[k] is both[k] for k in both)

    @pytest.mark.parametrize("model_name", ["gat", "gcn", "sage"])
    def test_arena_backed_run_matches_fresh_storage(
        self, small_blocks, graph, model_name
    ):
        compiled = compile_training(
            MODELS.get(model_name)(IN_DIM, NUM_CLASSES), get_strategy("ours")
        )
        plans = compiled.memory_plan(graph.stats())
        fresh = Engine(graph)
        arena = Engine(graph, memory_plan=plans)
        arrays = _training_arrays(compiled, graph)
        forward = None
        for plan in (compiled.fwd_plan, compiled.bwd_plan):
            if forward is not None:
                arrays = backward_arrays(compiled, arrays, forward)
            want = fresh.run_plan(plan, fresh.bind(plan.module, arrays))
            got = arena.run_plan(plan, arena.bind(plan.module, arrays))
            assert_same_values(got, want, plan, f"{model_name}/arena")
            forward = forward or want


class TestClassification:
    def test_cached_on_the_plan_and_dies_with_it(self):
        import gc
        import weakref

        compiled = compile_training(
            MODELS.get("gcn")(IN_DIM, NUM_CLASSES), get_strategy("ours")
        )
        plan = compiled.fwd_plan
        fused = [i for i, k in enumerate(plan.kernels) if len(k.nodes) > 1]
        assert plan.blocked(fused[0]) is plan.blocked(fused[0])
        assert plan.chains(fused[0]) is plan.chains(fused[0])
        # gcn's only internal edge tensors belong to its chains: a run
        # that takes them has nothing to walk, one that cannot walks.
        assert plan.blocked(fused[0], True) is None
        assert plan.result_names() is plan.result_names()
        assert plan.argmax_demand() is plan.argmax_demand()
        ref = weakref.ref(plan.blocked(fused[0]))
        del compiled, plan
        gc.collect()
        assert ref() is None, "block classification outlived its plan"

    def test_gcn_backward_prefix_runs_whole_once(self):
        """The recomputed bias_add→relu→relu_grad→bias_grad prefix reads
        only kernel inputs: it is *pre*, not re-run per block (the walk
        of a run that cannot take gcn's chains: narrow storage,
        ``check_finite``)."""
        compiled = compile_training(
            MODELS.get("gcn")(IN_DIM, NUM_CLASSES), get_strategy("ours")
        )
        plan = compiled.bwd_plan
        blocked = max(
            filter(None, (plan.blocked(i) for i in range(len(plan.kernels)))),
            key=lambda b: len(b.pre),
        )
        assert [n.fn for n in blocked.pre] == [
            "bias_add", "relu", "relu_grad", "bias_grad"
        ]
        assert blocked.orientation == "out"
        assert [s.node.fn for s in blocked.steps] == ["copy_v", "mul", "sum"]
        assert blocked.post == ()

    def test_edge_softmax_is_block_local(self):
        """max→copy_v→sub→exp→sum→copy_v→div under the vertex mapping:
        the paper's ReduceScatter case needs nothing outside the block."""
        compiled = compile_training(
            MODELS.get("gat")(IN_DIM, NUM_CLASSES), get_strategy("ours")
        )
        plan = compiled.fwd_plan
        for i, kernel in enumerate(plan.kernels):
            if kernel.reduce_scatter:
                blocked = plan.blocked(i)
                assert blocked.pre == () and blocked.post == ()
                assert len(blocked.steps) == len(kernel.nodes)

    def test_opposite_orientation_gather_runs_after_the_walk(self):
        compiled = compile_training(
            MODELS.get("gat")(IN_DIM, NUM_CLASSES), get_strategy("ours")
        )
        plan = compiled.bwd_plan
        for i, kernel in enumerate(plan.kernels):
            blocked = plan.blocked(i)
            if blocked is None:
                continue
            for node in kernel.nodes:
                if node.kind.value == "gather" and node.orientation != blocked.orientation:
                    assert node in blocked.post
            for node in blocked.pre + blocked.post:
                assert node not in [s.node for s in blocked.steps]

    def test_per_op_and_max_grad_kernels_keep_the_node_path(self):
        module = MODELS.get("sage")(IN_DIM, NUM_CLASSES).build_module()
        per_op = plan_module(module, mode="per_op")
        assert all(per_op.blocked(i) is None for i in range(len(per_op.kernels)))
        compiled = compile_training(
            MODELS.get("edgeconv")(IN_DIM, NUM_CLASSES), get_strategy("ours")
        )
        plan = compiled.bwd_plan
        for i, kernel in enumerate(plan.kernels):
            if any(n.fn == "max_grad" for n in kernel.nodes):
                assert plan.blocked(i) is None


def _walk_module(reduce: str, orientation: str, feat: int):
    """(x[src] + x[dst]) * w, reduced per home vertex — one fused
    kernel whose scatter reads the same name at both endpoints."""
    b = Builder("walk")
    x = b.input("x", Domain.VERTEX, (feat,))
    w = b.input("w", Domain.EDGE, (feat,))
    e = b.scatter("u_add_v", u=x, v=x)
    m = b.apply("mul", e, w)
    out = b.gather(reduce, m, orientation=orientation, name="out")
    if reduce == "max":
        out, idx = out
    b.output(b.apply("neg", out, name="y"))
    module = b.build()
    keep = [idx.name] if reduce == "max" else []
    return module, plan_module(module, mode="unified", keep=keep)


def _naive(graph, x, w, reduce, orientation):
    """Per-home-vertex Python loop over the COO edge list."""
    home = graph.dst if orientation == "in" else graph.src
    y = np.zeros_like(x)
    arg = np.full(x.shape, -1, dtype=np.int64)
    for v in range(graph.num_vertices):
        acc = None
        for e in range(graph.num_edges):
            if home[e] != v:
                continue
            row = (x[graph.src[e]] + x[graph.dst[e]]) * w[e]
            if acc is None:
                acc = row.copy()
                arg[v] = e
            elif reduce == "sum":
                acc = acc + row
            else:
                better = row > acc
                acc = np.where(better, row, acc)
                arg[v] = np.where(better, e, arg[v])
        if acc is not None:
            y[v] = acc
    return -y, arg


class TestWalkAgainstNaiveLoop:
    """Hypothesis: the walk on random multigraphs (self-loops, parallel
    edges, isolated vertices), random block budgets, both orientations.
    A segment sum is ``+0.0`` then its rows left to right in edge-id
    order — the loop below — so real-valued sums must match it exactly
    too; ``max`` data stays integer-valued (ties are then common, which
    is what exercises the first-argmax rule)."""

    def test_random_multigraphs(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 9))
            m = draw(st.integers(0, 40))
            ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
            graph = Graph(
                np.array(draw(ends), dtype=np.int64),
                np.array(draw(ends), dtype=np.int64), n,
            )
            feat = draw(st.integers(1, 3))
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
            reduce = draw(st.sampled_from(["sum", "max"]))
            if reduce == "sum" and draw(st.booleans()):
                x, w = rng.normal(size=(n, feat)), rng.normal(size=(m, feat))
            else:
                x = rng.integers(-8, 9, size=(n, feat)).astype(np.float64)
                w = rng.integers(-4, 5, size=(m, feat)).astype(np.float64)
            return (
                graph, x, w, reduce,
                draw(st.sampled_from(["in", "out"])),
                draw(st.integers(1, 600)),
            )

        @hypothesis.settings(max_examples=120, deadline=None)
        @hypothesis.given(case=cases())
        def check(case):
            graph, x, w, reduce, orientation, budget = case
            monkeypatch.setattr(blocks, "BLOCK_BYTES", budget)
            module, plan = _walk_module(reduce, orientation, x.shape[1])
            engine = Engine(graph, precision="float64")
            got = engine.run_plan(plan, engine.bind(module, {"x": x, "w": w}))
            want_y, want_arg = _naive(graph, x, w, reduce, orientation)
            # (array_equal, not tobytes: integer data mints signed zeros
            # whose sign a max may legitimately pick either way.)
            assert np.array_equal(got["y"], want_y)
            if reduce == "max":
                assert np.array_equal(got["out.aux1"], want_arg)

        check()


class TestBytesAreReal:
    """Host-side meaning of "internal values live on chip": a fused
    kernel's internal edge tensors are never materialised whole."""

    @staticmethod
    def _traced_peak(engine, plan, env):
        engine.run_plan(plan, env)  # blocks and operators are cached now
        tracemalloc.start()
        try:
            engine.run_plan(plan, env)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stats = engine.graph.stats()
        specs = plan.module.specs
        boundary = sum(
            specs[w].nbytes(stats.num_vertices, stats.num_edges)
            for i in range(len(plan.kernels))
            for w in plan.kernel_io(i).writes
        )
        return peak, boundary

    def test_a_chain_allocates_no_edge_tensor_at_all(self):
        """One ``run_plan`` of gcn's fused forward allocates its
        boundary values plus one weight permutation (E scalars) — not
        two E×f messages, and no blocks of them either."""
        graph = chung_lu(20_000, 200_000, seed=1)
        feat = 32
        model = MODELS.get("gcn")(feat, feat)
        compiled = compile_training(model, get_strategy("ours"))
        engine = Engine(graph)
        rng = np.random.default_rng(0)
        arrays = model.make_inputs(
            graph, rng.normal(size=(graph.num_vertices, feat)).astype(np.float32)
        )
        arrays.update(model.init_params(0))
        peak, boundary = self._traced_peak(
            engine, compiled.fwd_plan, engine.bind(compiled.forward, arrays)
        )
        scalars = graph.num_edges * 4
        assert peak <= boundary + 2 * scalars, (
            f"peak {peak / 2**20:.1f} MiB vs boundary {boundary / 2**20:.1f} MiB"
        )
        # A single E×f message would not fit.
        assert feat * scalars > 2 * scalars + boundary

    @pytest.mark.parametrize("size, walked", [
        ((20_000, 200_000), True),
        # Fits one block: the node path, where only the dot step's edge
        # chunks keep its products small.
        ((3_000, 60_000), False),
    ])
    def test_gat_builds_no_per_head_message(self, monkeypatch, walks, size, walked):
        """gat (4 heads × 64) forward and backward: each kernel holding
        per-head chains allocates at most its writes, its internal
        values outside chains — E×H attention tensors and vertex rows,
        whole or per block — and a few ``BLOCK_BYTES``.  One E×H×F
        message, which the per-head aggregations and the dot step stand
        in for, would not fit."""
        graph = chung_lu(*size, seed=1)
        V, E = graph.num_vertices, graph.num_edges
        model = MODELS.get("gat")(8, 4)
        compiled = compile_training(model, get_strategy("ours"))
        engine = Engine(graph)
        rng = np.random.default_rng(0)
        arrays = model.make_inputs(
            graph, rng.normal(size=(V, 8)).astype(np.float32)
        )
        arrays.update(model.init_params(0))
        message = E * 4 * 64 * 4
        slack = 4 * blocks.BLOCK_BYTES
        forward = None
        for plan in (compiled.fwd_plan, compiled.bwd_plan):
            if forward is not None:
                arrays = backward_arrays(compiled, arrays, forward)
            env = engine.bind(plan.module, arrays)
            # Blocks and operators are cached after one run.
            result = engine.run_plan(plan, env, unwrap=False)
            forward = forward or result
            specs = plan.module.specs
            # Each kernel's allocation peak, read where its epilogue
            # begins and counted from where the previous one ended.
            grown, start = {}, [0]
            end_kernel = Engine._end_kernel

            def spy(self, run, kernel):
                _, peak = tracemalloc.get_traced_memory()
                grown[kernel.index] = peak - start[0]
                end_kernel(self, run, kernel)
                tracemalloc.reset_peak()
                start[0], _ = tracemalloc.get_traced_memory()

            monkeypatch.setattr(Engine, "_end_kernel", spy)
            tracemalloc.start()
            try:
                start[0], _ = tracemalloc.get_traced_memory()
                engine.run_plan(plan, env, unwrap=False)
            finally:
                tracemalloc.stop()
                monkeypatch.setattr(Engine, "_end_kernel", end_kernel)
            checked = []
            for i in range(len(plan.kernels)):
                io, chains = plan.kernel_io(i), plan.chains(i)
                interiors = {
                    o for c in chains.values() for n in c.interior for o in n.outputs
                }
                allowed = slack + sum(
                    specs[name].nbytes(V, E) for name in io.writes + io.internal
                    if name not in interiors
                )
                if any(specs[o].feat_elements == 4 * 64 for o in interiors):
                    checked.append(i)
                    assert grown[i] <= allowed < message, (
                        f"kernel {i}: {grown[i] / 2**20:.1f} MiB "
                        f"vs {allowed / 2**20:.1f} MiB"
                    )
            assert len(checked) == 1  # layer 0's; layer 1 has 4 classes
        assert bool(walks) == walked

    def test_a_walk_holds_blocks_not_edge_tensors(self):
        """(x[src] + x[dst]) * w summed per destination: two internal
        E×f tensors, of which one run holds a few blocks."""
        graph = chung_lu(20_000, 200_000, seed=1)
        feat = 32
        module, plan = _walk_module("sum", "in", feat)
        edge_bytes = graph.num_edges * feat * 4
        assert edge_bytes >= 4 * blocks.BLOCK_BYTES
        engine = Engine(graph)
        rng = np.random.default_rng(0)
        env = engine.bind(module, {
            "x": rng.normal(size=(graph.num_vertices, feat)).astype(np.float32),
            "w": rng.normal(size=(graph.num_edges, feat)).astype(np.float32),
        })
        peak, boundary = self._traced_peak(engine, plan, env)
        assert peak <= boundary + 8 * blocks.BLOCK_BYTES, (
            f"peak {peak / 2**20:.1f} MiB vs boundary {boundary / 2**20:.1f} MiB"
        )
        # The two E×f temporaries alone would not fit.
        assert 2 * edge_bytes > boundary + 8 * blocks.BLOCK_BYTES
