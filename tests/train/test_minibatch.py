"""Sampled mini-batch training: differential and reconciliation suite.

Contracts enforced here (extending the repo-wide differential
contract — optimizations are accounting transforms, values never
change):

1. **Full-batch bit-consistency** — a :class:`MiniBatchTrainer` with
   ``batch_size >= num_vertices`` reproduces the full-graph
   :class:`Trainer` losses and parameter trajectories *bit for bit*,
   for every model × training strategy (seeds-covering batches induce
   the identical graph, and an all-true seed mask takes the identical
   arithmetic path).
2. **Gather reconciliation** — the analytic per-batch feature-gather
   bytes equal the bytes of the vertex-data arrays the engine actually
   binds, exactly, on multiple datasets (engine precision float32 =
   the accounting dtype).
3. **Receptive-field exactness** — for in-orientation models the
   masked-seed gradients of a sampled step equal the full-graph
   gradients of the same masked loss.
4. **Rings are bit-identical** — a sampled epoch, whose steps compute
   each layer, forward and backward, only on the rows the seeds need,
   reproduces the same batches run whole-field with the seed mask:
   losses, accuracies and parameter trajectories by ``tobytes()``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.frameworks import compile_training, get_strategy, list_strategies
from repro.graph import chung_lu, get_dataset, plan_minibatches
from repro.graph.stats import expected_khop_membership
from repro.models import GraphSAGE
from repro.registry import MODELS
from repro.session import Session
from repro.train import SGD, Adam, MiniBatchTrainer, Trainer, receptive_hops
from repro.train.loop import softmax_cross_entropy


def _problem(num_vertices=90, num_edges=520, in_dim=6, classes=4, seed=5):
    # Self-loops keep zero-in-degree vertices defined under every
    # model's normalisation (GCN divides by in-degree).
    graph = chung_lu(num_vertices, num_edges, seed=seed).add_self_loops()
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(num_vertices, in_dim))
    labels = (feats @ rng.normal(size=(in_dim, classes))).argmax(1)
    return graph, feats, labels, in_dim, classes


TRAINING_STRATEGIES = [
    n for n in list_strategies() if get_strategy(n).supports_training
]

# Tier-1 cross-section; the full model × strategy product runs in the
# slow suite below.
FAST_CASES = [
    ("sage", "ours"),
    ("gcn", "dgl-like"),
    ("gat", "ours-stash"),
]


def _assert_bit_identical_full_batch(model_name, strategy_name, steps=3):
    graph, feats, labels, in_dim, classes = _problem()
    model = MODELS.get(model_name)(in_dim, classes)
    compiled = compile_training(model, get_strategy(strategy_name))

    full = Trainer(compiled, graph, precision="float64", seed=0)
    opt_full = Adam(lr=0.01)
    mbt = MiniBatchTrainer(
        compiled, graph,
        batch_size=graph.num_vertices + 10,  # seeds-covering batches
        precision="float64", seed=0,
    )
    opt_mb = Adam(lr=0.01)
    for _ in range(steps):
        loss, _ = full.train_step(feats, labels, opt_full)
        epoch = mbt.train_epoch(feats, labels, opt_mb)
        assert epoch.num_batches == 1
        assert epoch.loss == loss  # bit-for-bit, not allclose
    for name in full.params:
        assert np.array_equal(full.params[name], mbt.params[name]), (
            f"{model_name}/{strategy_name}: param {name} diverged"
        )


class TestFullBatchBitConsistency:
    @pytest.mark.parametrize("model_name,strategy_name", FAST_CASES)
    def test_matches_full_graph_trainer(self, model_name, strategy_name):
        _assert_bit_identical_full_batch(model_name, strategy_name)

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    @pytest.mark.parametrize("strategy_name", TRAINING_STRATEGIES)
    def test_every_model_times_strategy(self, model_name, strategy_name):
        _assert_bit_identical_full_batch(model_name, strategy_name, steps=2)


def _assert_ring_epochs_match_whole(
    model_name, strategy_name, offset, *,
    problem=_problem, batch_size=20, epochs=2, precision=None, optimizer=Adam,
    reach=True,
):
    """Ring steps == the same batches through :class:`Trainer` on each
    ``mb.subgraph`` whole, seed-masked, with no ``distance``.  The
    fields' radius is the model's depth plus ``offset`` (``"-depth"``:
    the seeds alone, every batch all ring 0, run whole).  At the depth
    the ring side is a :class:`MiniBatchTrainer` epoch; off it,
    ``Trainer.train_step(distance=)`` on the ``plan_minibatches``
    fields of that radius.  ``precision`` overrides the strategy's
    storage precision.  ``reach`` asserts some field reaches its
    radius.  Returns the most rows any ring below a field's last held."""
    graph, feats, labels, in_dim, classes = problem()
    model = MODELS.get(model_name)(in_dim, classes)
    strategy = get_strategy(strategy_name)
    if precision is not None:
        strategy = replace(strategy, precision=precision)
    compiled = compile_training(model, strategy)
    depth = receptive_hops(compiled.forward)
    hops = 0 if offset == "-depth" else max(depth + offset, 0)
    mbt = MiniBatchTrainer(
        compiled, graph, batch_size=batch_size,
        precision="float32", seed=0, sampler_seed=3,
    )
    ring_schedule = np.random.default_rng(3)

    def ring_epoch(opt):
        """(loss, accuracy) per batch, stepping ``mbt.params``."""
        if hops == depth:
            return [(r.loss, r.accuracy) for r in mbt.train_epoch(feats, labels, opt).records]
        steps = []
        for mb in plan_minibatches(graph, batch_size, hops, rng=ring_schedule):
            trainer = Trainer(compiled, mb.subgraph, params=mbt.params, precision="float32")
            steps.append(trainer.train_step(
                feats[mb.vertices], labels[mb.vertices], opt, distance=mb.distance
            ))
            mbt.params = trainer.params
        return steps

    opt_ring, opt_whole = optimizer(lr=0.01), optimizer(lr=0.01)
    params = dict(mbt.params)
    schedule = np.random.default_rng(3)
    rows = reached = 0
    for _ in range(epochs):
        steps = ring_epoch(opt_ring)
        batches = list(plan_minibatches(graph, batch_size, hops, rng=schedule))
        assert len(steps) == len(batches)
        for (ring_loss, ring_acc), mb in zip(steps, batches):
            whole = Trainer(compiled, mb.subgraph, params=params, precision="float32")
            mask = mb.seed_mask()
            loss, acc = whole.train_step(
                feats[mb.vertices], labels[mb.vertices], opt_whole,
                None if mask.all() else mask,
            )
            params = whole.params
            assert np.float64(ring_loss).tobytes() == np.float64(loss).tobytes()
            assert np.float64(ring_acc).tobytes() == np.float64(acc).tobytes()
            reached = max(reached, int(mb.distance[-1]))
            rows = max(rows, int((mb.distance < mb.distance[-1]).sum()))
        for name, value in params.items():
            assert value.tobytes() == mbt.params[name].tobytes(), (
                f"{model_name}/{strategy_name}: param {name} diverged"
            )
    assert reached == hops or not reach, "no field reaches its radius"
    return rows


def _large_problem():
    return _problem(num_vertices=1200, num_edges=5000, seed=5)


class TestRingEpochs:
    """Sampled steps on rings == the same batches whole (contract 4),
    on fields shallower than, as deep as and deeper than the model."""

    @pytest.mark.parametrize("offset", ["-depth", -1, 0, 1])
    @pytest.mark.parametrize("model_name", ["sage", "gat", "gcn", "monet"])
    def test_matches_whole_field_steps(self, model_name, offset):
        # MoNet's Gaussian parameter gradients reduce edge rows: ringed
        # edge operands go back to their COO ids, +0.0 elsewhere.
        _assert_ring_epochs_match_whole(model_name, "ours", offset)

    @pytest.mark.parametrize("precision", ["fp16", "bf16"])
    def test_narrow_storage(self, precision):
        # fp16 losses reduce in float32 when unmasked (np.mean) and in
        # float16 when masked: a ring step takes the masked reductions.
        # SGD: Adam's eps underflows in float16 gradients.
        _assert_ring_epochs_match_whole(
            "gin", "ours", 0, precision=precision, optimizer=SGD
        )

    def test_rings_past_400_rows(self):
        # Above 400 rows the BLAS products split their reduction
        # dimension; the tiled products and whole-row PARAM_GRADs must
        # keep every bit anyway.
        rows = _assert_ring_epochs_match_whole(
            "sage", "ours", 0, problem=_large_problem, batch_size=300, epochs=1,
        )
        assert rows > 400

    @pytest.mark.slow
    @pytest.mark.parametrize("offset", ["-depth", -1, 0, 1])
    @pytest.mark.parametrize(
        "strategy_name", ["dgl-like", "fusegnn-like", "ours", "ours-stash"]
    )
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_zoo(self, model_name, strategy_name, offset):
        # A 3-layer model's depth + 1 = 4 hops covers the 90-vertex
        # graph before its last hop.
        _assert_ring_epochs_match_whole(
            model_name, strategy_name, offset, reach=False
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_zoo_past_400_rows(self, model_name):
        rows = _assert_ring_epochs_match_whole(
            model_name, "ours", 0,
            problem=_large_problem, batch_size=300, epochs=1,
        )
        assert rows > 400


class TestRingHazards:
    """What a ring step must not get wrong where the rows run out."""

    @staticmethod
    def _batch(graph, hops=2, batch_size=12, seed=1):
        """The first sampled batch whose field reaches ``hops``."""
        rng = np.random.default_rng(seed)
        for mb in plan_minibatches(graph, batch_size, hops, rng=rng):
            if mb.distance[-1] == hops:
                return mb
        raise AssertionError("no batch reaches its last hop")

    @staticmethod
    def _grads(trainer, feats, labels, mb, ring):
        """One forward and backward; the loss reads the seeds only."""
        if ring:
            fwd = trainer.forward(feats, distance=mb.distance)
            n0 = mb.num_seeds
            logits = fwd[trainer.output_name][:n0]
            _, grad = softmax_cross_entropy(logits, labels[:n0])
            return trainer.backward(fwd, grad, distance=mb.distance)
        fwd = trainer.forward(feats)
        _, grad = softmax_cross_entropy(
            fwd[trainer.output_name], labels, mb.seed_mask()
        )
        return trainer.backward(fwd, grad)

    def test_softmax_without_in_edges_leaves_zero_not_nan(self):
        # No self-loops: some field vertices have no in-edges at all, so
        # GAT's softmax sums 0 over them on every ring that holds them.
        graph = chung_lu(90, 260, seed=2)
        mb = self._batch(graph)
        sub = mb.subgraph
        lonely = np.flatnonzero(sub.in_degrees[: int((mb.distance <= 1).sum())] == 0)
        assert lonely.size
        compiled = compile_training(MODELS.get("gat")(6, 4), get_strategy("ours"))
        params = compiled.model.init_params(0)
        feats = np.random.default_rng(0).normal(size=(sub.num_vertices, 6))
        engine = Trainer(compiled, sub, params=params, precision="float32").engine
        engine.check_finite = True
        arrays = compiled.model.make_inputs(sub, feats)
        arrays.update(params)
        env = engine.bind(compiled.forward, arrays)
        whole = engine.run_plan(compiled.fwd_plan, env)
        ring = engine.run_plan(
            compiled.fwd_plan, env,
            distance=mb.distance, rings=compiled.rings()[0],
        )
        sums = [name for name in ring if name.startswith("esm_sum")]
        assert sums
        for name in sums:
            rows = ring[name].shape[0]
            assert np.isfinite(ring[name]).all()
            assert not ring[name][lonely[lonely < rows]].any()
            assert ring[name].tobytes() == whole[name][:rows].tobytes()

    def test_dead_relu_weight_gradient_columns_keep_their_bits(self):
        graph, feats, labels, in_dim, classes = _problem(
            num_vertices=300, num_edges=900, seed=4
        )
        mb = self._batch(graph, batch_size=30)
        compiled = compile_training(
            GraphSAGE(in_dim, (8, classes)), get_strategy("ours")
        )
        params = compiled.model.init_params(1)
        # Unit 3 of layer 0 is dead on every row: its column of each
        # layer-0 weight gradient is all zeros, reduced over the field.
        params["l0_bias"] = params["l0_bias"].copy()
        params["l0_bias"][3] = -1e4
        grads = [
            self._grads(
                Trainer(compiled, mb.subgraph, params=params, precision="float32"),
                feats[mb.vertices], labels[mb.vertices], mb, ring,
            )
            for ring in (True, False)
        ]
        for name in grads[1]:
            assert grads[0][name].tobytes() == grads[1][name].tobytes(), name
        assert not grads[0]["l0_w_self"][:, 3].any()
        assert not grads[0]["l0_bias"][3]

    @pytest.mark.parametrize("model_name", ["sage", "gat", "gcn"])
    def test_check_finite_ring_steps(self, model_name):
        graph, feats, labels, in_dim, classes = _problem()
        mb = self._batch(graph)
        compiled = compile_training(
            MODELS.get(model_name)(in_dim, classes), get_strategy("ours")
        )
        params = []
        for ring in (True, False):
            trainer = Trainer(compiled, mb.subgraph, precision="float32")
            trainer.engine.check_finite = True   # node by node, no chains
            args = (feats[mb.vertices], labels[mb.vertices], Adam(lr=0.01))
            if ring:
                trainer.train_step(*args, distance=mb.distance)
            else:
                trainer.train_step(*args, mb.seed_mask())
            params.append(trainer.params)
        for name in params[1]:
            assert params[0][name].tobytes() == params[1][name].tobytes(), name

    def test_distance_step_refuses_a_mask(self):
        graph, feats, labels, in_dim, classes = _problem()
        mb = self._batch(graph)
        compiled = compile_training(
            MODELS.get("sage")(in_dim, classes), get_strategy("ours")
        )
        trainer = Trainer(compiled, mb.subgraph, precision="float32")
        with pytest.raises(ValueError, match="no mask"):
            trainer.train_step(
                feats[mb.vertices], labels[mb.vertices], Adam(lr=0.01),
                mb.seed_mask(), distance=mb.distance,
            )

    def test_arena_param_grad_tails_never_read_stale_bytes(self):
        graph, feats, labels, in_dim, classes = _problem()
        mb = self._batch(graph)
        sub = mb.subgraph
        compiled = compile_training(
            MODELS.get("sage")(in_dim, classes), get_strategy("ours")
        )
        # A float32 trainer runs its ring steps in the arena it plans
        # at step two.
        ring = Trainer(compiled, sub, precision="float32")
        whole = Trainer(compiled, sub, precision="float32")
        args = (feats[mb.vertices], labels[mb.vertices])
        opt_ring, opt_whole = Adam(lr=0.01), Adam(lr=0.01)
        for _ in range(4):
            if ring.engine._arena is not None:
                # NaN in every byte a ring leaves unwritten: a PARAM_GRAD
                # reading its tail from the slab would return NaN.
                ring.engine._arena[1].buffer.fill(0xFF)
            ring.train_step(*args, opt_ring, distance=mb.distance)
            whole.train_step(*args, opt_whole, mb.seed_mask())
        assert ring.engine._arena is not None
        for name in whole.params:
            assert ring.params[name].tobytes() == whole.params[name].tobytes(), name


class TestGatherReconciliation:
    """Analytic per-batch feature-gather bytes == engine-measured bytes."""

    # Three datasets, as the acceptance contract requires.
    DATASETS = ["cora", "citeseer", "pubmed"]

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_exact_on_dataset(self, dataset):
        ds = get_dataset(dataset)
        graph = ds.graph()
        in_dim = 8
        batch = max(64, graph.num_vertices // 8)
        seed = 11

        sess = (
            Session()
            .model("sage").dataset(dataset).strategy("ours")
            .feature_dim(in_dim).minibatch(batch, seed=seed)
        )
        mc = sess.report().minibatch

        compiled = sess.compile()
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(graph.num_vertices, in_dim))
        labels = (feats @ rng.normal(size=(in_dim, ds.num_classes))).argmax(1)
        mbt = MiniBatchTrainer(
            compiled, graph, batch_size=batch,
            precision="float32",  # accounting dtype: exact reconciliation
            sampler_seed=seed,
        )
        epoch = mbt.train_epoch(feats, labels, Adam(lr=0.01))

        assert mc.num_batches == epoch.num_batches
        for analytic, measured in zip(mc.batches, epoch.records):
            assert analytic.field == measured.field_size
            assert analytic.edges == measured.num_edges
            assert analytic.gather_bytes == measured.gather_bytes
        assert mc.gather_bytes == epoch.gather_bytes

    def test_epoch_schedule_is_exact_not_estimated(self):
        # Concrete datasets sample real batches: per-batch field sizes
        # must be reproducible from the same seed, not degree-model
        # expectations.
        sess = (
            Session()
            .model("sage").dataset("cora").strategy("ours")
            .feature_dim(8).minibatch(256, seed=3)
        )
        mc = sess.report().minibatch
        graph = get_dataset("cora").graph()
        want = [
            mb.field_size
            for mb in plan_minibatches(
                graph, 256, 2, rng=np.random.default_rng(3)
            )
        ]
        assert [b.field for b in mc.batches] == want


class TestReceptiveFieldExactness:
    def test_sampled_gradients_equal_masked_full_graph_gradients(self):
        # For an in-orientation model (SAGE), a sampled step's gradients
        # equal the full-graph gradients of the same seed-masked loss:
        # the k-hop field contains the seeds' whole computation cone.
        graph, feats, labels, in_dim, classes = _problem(seed=9)
        model = GraphSAGE(in_dim, (7, classes))
        compiled = compile_training(model, get_strategy("ours"))
        params = model.init_params(2)

        rng = np.random.default_rng(1)
        (mb,) = [
            next(iter(plan_minibatches(graph, 25, 2, rng=rng)))
        ]

        # Full-graph step with the seed-masked loss.
        full_mask = np.zeros(graph.num_vertices, dtype=bool)
        full_mask[mb.seeds] = True
        full = Trainer(compiled, graph, params=dict(params), precision="float64")
        fwd = full.forward(feats)
        logits = fwd[full.output_name]
        _, grad = softmax_cross_entropy(logits, labels, full_mask)
        full_grads = full.backward(fwd, grad)

        # Sampled step on the induced receptive field.
        sub_tr = Trainer(
            compiled, mb.subgraph, params=dict(params), precision="float64"
        )
        sub_fwd = sub_tr.forward(feats[mb.vertices])
        sub_logits = sub_fwd[sub_tr.output_name]
        _, sub_grad = softmax_cross_entropy(
            sub_logits, labels[mb.vertices], mb.seed_mask()
        )
        sub_grads = sub_tr.backward(sub_fwd, sub_grad)

        for name in full_grads:
            assert np.allclose(
                full_grads[name], sub_grads[name], rtol=1e-9, atol=1e-12
            ), name
        # And the seed logits themselves are exact.
        assert np.allclose(
            sub_logits[mb.seed_index], logits[mb.seeds], rtol=1e-9
        )


class TestMiniBatchTrainerBehaviour:
    def test_loss_descends_on_sampled_batches(self):
        graph, feats, labels, in_dim, classes = _problem(seed=13)
        model = GraphSAGE(in_dim, (8, classes))
        compiled = compile_training(model, get_strategy("ours"))
        mbt = MiniBatchTrainer(compiled, graph, batch_size=30, seed=0)
        results = mbt.train(feats, labels, Adam(lr=0.05), epochs=8)
        assert np.mean([r.loss for r in results[-2:]]) < 0.8 * results[0].loss
        assert mbt.epochs_trained == 8

    def test_fields_reach_the_model_depth(self):
        graph, feats, labels, in_dim, classes = _problem()
        model = GraphSAGE(in_dim, (8, 8, classes))  # 3 layers
        compiled = compile_training(model, get_strategy("ours"))
        assert receptive_hops(compiled.forward) == 3
        mbt = MiniBatchTrainer(compiled, graph, batch_size=16)
        assert mbt.hops == 3

    def test_rejects_bad_configuration(self):
        graph, *_ = _problem()
        model = GraphSAGE(4, (4, 2))
        compiled = compile_training(model, get_strategy("ours"))
        with pytest.raises(ValueError):
            MiniBatchTrainer(compiled, graph, batch_size=0)

    def test_evaluate_uses_full_graph(self):
        graph, feats, labels, in_dim, classes = _problem()
        model = GraphSAGE(in_dim, (8, classes))
        compiled = compile_training(model, get_strategy("ours"))
        mbt = MiniBatchTrainer(compiled, graph, batch_size=30, seed=0)
        loss, acc = mbt.evaluate(feats, labels)
        assert np.isfinite(loss) and 0.0 <= acc <= 1.0


class TestASampledStepBuildsWhatItReads:
    """A 2-layer sage step reads the in-edges of rings 0 and 1: three
    operators per batch (each ring's in-edges, ring 0's grouped by
    source), and no whole-field edge list or edge ids.  Eager work that
    creeps back fails here, not only on the clock."""

    def test_three_operators_per_batch_and_no_edge_list(self, monkeypatch):
        import repro.graph.csr as csr
        import repro.train.minibatch as minibatch

        graph, feats, labels, in_dim, classes = _problem(seed=7)
        compiled = compile_training(GraphSAGE(in_dim, (8, classes)), get_strategy("ours"))
        mbt = MiniBatchTrainer(compiled, graph, batch_size=12, precision="float32", seed=0)
        operators, built, marks, batches = [], [], [], []
        build = csr.adjacency_operator

        def counted(*args):
            operators.append(args[0].shape[0] - 1)
            return build(*args)

        def first_use(name, method):
            def spy(self, *args):
                built.append(name)
                return method(self, *args)
            return spy

        def plan(*args, **kwargs):
            for mb in plan_minibatches(*args, **kwargs):
                marks.append(len(operators))
                batches.append(mb)
                yield mb
            marks.append(len(operators))

        monkeypatch.setattr(csr, "adjacency_operator", counted)
        monkeypatch.setattr(minibatch, "plan_minibatches", plan)
        for name in ("order", "eids"):
            monkeypatch.setattr(csr.InEdges, name, first_use(name, getattr(csr.InEdges, name)))
        monkeypatch.setattr(csr._InEdgeGraph, "_edges", first_use("edges", csr._InEdgeGraph._edges))
        mbt.train_epoch(feats, labels, Adam(lr=0.01))
        assert len(batches) == 8 and all(int(mb.distance[-1]) == 2 for mb in batches)
        assert np.diff(marks).tolist() == [3] * len(batches)
        assert built == []
        assert all("edge_ids" not in vars(mb) for mb in batches)


class TestExpectedFieldModel:
    def test_estimate_tracks_empirical_mean(self):
        graph, *_ = _problem(num_vertices=400, num_edges=2400, seed=21)
        stats = graph.stats()
        batch, hops = 40, 2
        est = expected_khop_membership(stats, batch, hops).sum()
        fields = []
        for trial in range(5):
            rng = np.random.default_rng(trial)
            fields.extend(
                mb.field_size
                for mb in plan_minibatches(graph, batch, hops, rng=rng)
            )
        emp = float(np.mean(fields))
        assert 0.6 * emp < est < 1.5 * emp, (est, emp)

    def test_membership_monotone_in_hops_and_batch(self):
        graph, *_ = _problem(num_vertices=200, num_edges=1000, seed=3)
        stats = graph.stats()
        sizes = [
            expected_khop_membership(stats, 20, h).sum() for h in range(4)
        ]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        m_small = expected_khop_membership(stats, 10, 2)
        m_big = expected_khop_membership(stats, 50, 2)
        assert (m_small <= m_big + 1e-12).all()
        assert (m_small >= 0).all() and (m_big <= 1).all()


class TestSessionMinibatch:
    def test_full_coverage_matches_full_graph_counters(self):
        sess = (
            Session()
            .model("sage").dataset("cora").strategy("ours").feature_dim(8)
        )
        full = sess.counters()
        sess.minibatch(10 ** 6)
        mc = sess.report().minibatch
        assert mc.num_batches == 1
        b = mc.batches[0]
        assert b.compute.flops == full.flops
        assert b.compute.io_bytes == full.io_bytes
        assert b.compute.peak_memory_bytes == full.peak_memory_bytes
        assert mc.expansion == 1.0

    def test_stats_only_workload_uses_degree_model(self):
        sess = (
            Session()
            .model("sage").dataset("reddit-full").strategy("ours")
            .feature_dim(16).minibatch(65536, seed=0)
        )
        mc = sess.report().minibatch
        assert mc.num_batches == 4  # ceil(232965 / 65536)
        assert mc.gather_bytes > 0
        assert mc.peak_memory_bytes > 0
        # Epoch latency and device fit go through the same machinery.
        assert sess.report().latency_s > 0
        assert isinstance(sess.fits(), bool)

    def test_minibatch_requires_configuration(self):
        sess = Session().model("sage").dataset("cora").feature_dim(8)
        assert sess.report().minibatch is None

    def test_minibatch_rejects_cluster(self):
        sess = (
            Session()
            .model("sage").dataset("cora").feature_dim(8)
            .minibatch(256).cluster("V100", 2)
        )
        with pytest.raises(ValueError, match="single-GPU"):
            sess.report()

    def test_counters_memoised_per_configuration(self):
        sess = (
            Session()
            .model("sage").dataset("cora").strategy("ours")
            .feature_dim(8).minibatch(256, seed=5)
        )
        a = sess.report().minibatch
        assert sess.report().minibatch is a
        sess.minibatch(128, seed=5)
        b = sess.report().minibatch
        assert b is not a and b.num_batches > a.num_batches

    def test_report_attaches_minibatch_and_trains(self):
        report = (
            Session()
            .model("sage").dataset("cora").strategy("ours")
            .feature_dim(8).minibatch(512, seed=0)
            .report(train_steps=2)
        )
        assert report.batch_size == 512
        assert report.minibatch is not None
        assert report.minibatch.num_batches >= 5
        assert len(report.losses) == 2
        assert "mini-batch" in report.summary()
        assert "feature gather" in report.summary()

    def test_sweep_batch_size_axis(self):
        from repro.session import run_sweep

        sweep = run_sweep(
            models=["sage"], datasets=["cora"], strategies=["ours"],
            batch_size=[None, 512], feature_dim=8,
        )
        assert len(sweep.rows) == 2
        full = sweep.by(batch_size=None)[0]
        sampled = sweep.by(batch_size=512)[0]
        assert sampled.gather_bytes > 0 and full.gather_bytes == 0
        assert sampled.io_bytes > full.io_bytes
        # One compilation serves both batch options.
        assert sweep.cache_misses == 1
        assert "batch" in sweep.table()
        assert sampled.to_dict()["batch_size"] == 512

    def test_sweep_numpy_scalar_is_one_option(self, tmp_path):
        import json

        from repro.session import run_sweep

        kwargs = dict(
            models=["sage"], datasets=["cora"], strategies=["ours"],
            feature_dim=8,
        )
        scalar = run_sweep(
            batch_size=np.int64(512), save_as="scalar",
            results_dir=str(tmp_path), **kwargs,
        )
        listed = run_sweep(batch_size=[512], **kwargs)
        assert [r.to_dict() for r in scalar.rows] == [
            r.to_dict() for r in listed.rows
        ]
        with open(tmp_path / "scalar.json") as fh:
            assert json.load(fh) == listed.to_dict()

    def test_sweep_rejects_minibatch_with_clusters(self):
        from repro.session import run_sweep

        with pytest.raises(ValueError, match="single-GPU"):
            run_sweep(
                models=["sage"], datasets=["cora"], strategies=["ours"],
                batch_size=256, num_gpus=(2,), feature_dim=8,
            )

    def test_sweep_rejects_minibatch_with_registered_cluster_name(self):
        # Regression: a registered cluster name in `gpus` reaches the
        # sweep with num_gpus == 1 and used to drop the batch axis
        # silently instead of erroring.
        from repro.gpu.cluster import make_cluster
        from repro.session import run_sweep

        cluster = make_cluster("V100", 2)
        with pytest.raises(ValueError, match="single-GPU"):
            run_sweep(
                models=["sage"], datasets=["cora"], strategies=["ours"],
                gpus=[cluster], batch_size=256, feature_dim=8,
            )


@pytest.mark.slow
class TestSeed10LossDriftIsRounding:
    """Verdict on the ``minibatch-sage-cora`` seed-10 oracle failure
    (ROADMAP flake item): ``perf`` compares ``ours``/float32 with
    ``dgl-like``/float64 at rtol 1e-4 and the third epoch reads 2.1e-4
    apart.  The two *strategies* agree exactly at either precision; the
    whole gap is float32 rounding accumulated over 3 × 43 Adam steps —
    a tolerance to set, not a divergence to fix."""

    SEED = 10

    def _epoch_losses(self, strategy, precision):
        ds = get_dataset("cora")
        session = (
            Session().model("sage").dataset("cora").strategy(strategy)
            .feature_dim(32).gpu("V100")
        )
        trainer = MiniBatchTrainer(
            session.compile(), ds.graph(), batch_size=64, precision=precision,
            seed=self.SEED, sampler_seed=self.SEED,
        )
        features, labels = ds.features(dim=32, seed=self.SEED), ds.labels()
        optimizer = Adam(lr=0.01)
        return [
            trainer.train_epoch(features, labels, optimizer).loss for _ in range(3)
        ]

    def test_strategies_agree_exactly_precisions_to_5e_4(self):
        losses = {
            (strategy, precision): self._epoch_losses(strategy, precision)
            for strategy in ("ours", "dgl-like")
            for precision in ("float32", "float64")
        }
        for precision in ("float32", "float64"):
            assert losses["ours", precision] == losses["dgl-like", precision]
        np.testing.assert_allclose(
            losses["ours", "float64"],
            [1.6246090680547083, 0.7432392569969127, 0.4074837931339529],
            rtol=1e-12,
        )
        gap = [
            abs(a - b) / b
            for a, b in zip(losses["ours", "float32"], losses["ours", "float64"])
        ]
        # perf's oracle allows 1e-4; the third epoch reads 2.1e-4.
        assert max(gap) <= 5e-4, gap
