"""Tests for losses and the Trainer loop."""

import warnings

import numpy as np
import pytest

from repro.frameworks import compile_training, get_strategy
from repro.graph import chung_lu
from repro.models import GCN, GAT
from repro.registry import MODELS
from repro.train import SGD, Adam, Trainer, accuracy, softmax_cross_entropy


class TestCrossEntropy:
    def test_uniform_logits_loss_is_log_c(self):
        logits = np.zeros((10, 4))
        labels = np.zeros(10, dtype=np.int64)
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(4))
        assert grad.shape == (10, 4)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(6):
            for j in range(3):
                p, m = logits.copy(), logits.copy()
                p[i, j] += eps
                m[i, j] -= eps
                num = (
                    softmax_cross_entropy(p, labels)[0]
                    - softmax_cross_entropy(m, labels)[0]
                ) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, abs=1e-6)

    def test_mask_restricts_rows(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(8, 3))
        labels = rng.integers(0, 3, size=8)
        mask = np.zeros(8, dtype=bool)
        mask[:4] = True
        loss, grad = softmax_cross_entropy(logits, labels, mask)
        assert (grad[4:] == 0).all()
        full_loss, _ = softmax_cross_entropy(logits[:4], labels[:4])
        assert loss == pytest.approx(full_loss)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((4,)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((4, 2)), np.zeros(5, dtype=int))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_underflowed_probability_reads_a_finite_loss(self, dtype):
        # The label's probability underflows to 0 in every dtype; the
        # floor is 1e-30 where the dtype holds it (float32 / float64,
        # bit for bit the loss the 1e-30 clamp always gave) and the
        # smallest normal in float16, where 1e-30 is 0.
        logits = np.array([[0.0, -200.0], [0.0, 1.0]], dtype=dtype)
        labels = np.array([1, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = softmax_cross_entropy(logits, labels)
        assert np.isfinite(loss) and np.isfinite(grad).all()
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        floor = np.float16(np.finfo(np.float16).tiny) if dtype is np.float16 else 1e-30
        nll = -np.log(np.maximum(probs[[0, 1], labels], floor))
        assert loss == float(nll.mean())
        if dtype is not np.float16:
            assert nll[0] == -np.log(dtype(1e-30))

    def test_extreme_logits_stable(self):
        logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        labels = np.array([0, 1])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(4)
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_masked(self):
        logits = np.eye(4)
        labels = np.array([0, 1, 0, 0])
        mask = np.array([True, True, False, False])
        assert accuracy(logits, labels, mask) == 1.0


class TestTrainer:
    @pytest.fixture(scope="class")
    def setting(self):
        # Self-loops, as in standard GCN practice: without them a
        # vertex never sees its own features and feature-derived labels
        # are unlearnable.
        graph = chung_lu(50, 250, seed=1).add_self_loops()
        model = GCN(8, (8, 4))
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(50, 8))
        # A learnable task: labels follow a random linear map of the
        # features (random labels cannot be memorised through the
        # smoothing aggregation of a narrow GCN).
        labels = (feats @ rng.normal(size=(8, 4))).argmax(axis=1)
        return graph, model, feats, labels

    def test_loss_decreases(self, setting):
        graph, model, feats, labels = setting
        c = compile_training(model, get_strategy("ours"))
        tr = Trainer(c, graph, precision="float64", seed=0)
        opt = Adam(lr=0.05)
        first, _ = tr.train_step(feats, labels, opt)
        for _ in range(30):
            last, _ = tr.train_step(feats, labels, opt)
        assert last < 0.5 * first

    def test_training_can_fit_learnable_task(self, setting):
        graph, model, feats, labels = setting
        c = compile_training(model, get_strategy("ours"))
        tr = Trainer(c, graph, precision="float64", seed=0)
        opt = Adam(lr=0.05)
        for _ in range(150):
            _, acc = tr.train_step(feats, labels, opt)
        assert acc > 0.8

    def test_identical_trajectories_across_strategies(self, setting):
        graph, model, feats, labels = setting
        trajs = {}
        for sname in ("dgl-like", "ours"):
            c = compile_training(model, get_strategy(sname))
            tr = Trainer(c, graph, precision="float64", seed=0)
            opt = SGD(lr=0.1)
            losses = [tr.train_step(feats, labels, opt)[0] for _ in range(5)]
            trajs[sname] = losses
        assert np.allclose(trajs["dgl-like"], trajs["ours"], rtol=1e-9)

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_graph_derived_inputs_are_computed_once(
        self, setting, monkeypatch, precision
    ):
        """A Trainer's graph is fixed: ``edge_inputs`` (two degree
        gathers, a sqrt and a divide over all edges for GCN) runs at
        construction, not per step, and the losses are bit-equal to
        rebuilding and re-casting the inputs on every step."""
        graph, model, feats, labels = setting
        calls = []
        edge_inputs = GCN.edge_inputs
        monkeypatch.setattr(
            GCN, "edge_inputs",
            lambda self, graph: calls.append(graph) or edge_inputs(self, graph),
        )

        class PerStep(Trainer):
            def _forward(self, features, out=None):
                arrays = self.compiled.model.make_inputs(self.graph, features)
                arrays.update(self.params)
                env = self._fwd_env = self.engine.bind(self.compiled.forward, arrays)
                return self.engine.run_plan(
                    self.compiled.fwd_plan, env, unwrap=False, out=out
                )

        c = compile_training(model, get_strategy("ours"))
        losses = {}
        for cls in (Trainer, PerStep):
            del calls[:]
            tr = cls(c, graph, precision=precision, seed=0)
            opt = SGD(lr=0.1)
            losses[cls] = [tr.train_step(feats, labels, opt)[0] for _ in range(3)]
            assert len(calls) == (1 if cls is Trainer else 4)
        assert losses[Trainer] == losses[PerStep]

    def test_evaluate_does_not_update(self, setting):
        graph, model, feats, labels = setting
        c = compile_training(model, get_strategy("ours"))
        tr = Trainer(c, graph, precision="float64", seed=0)
        before = {k: v.copy() for k, v in tr.params.items()}
        tr.evaluate(feats, labels)
        for k in before:
            assert np.array_equal(before[k], tr.params[k])

    def test_masked_training(self, setting):
        graph, model, feats, labels = setting
        mask = np.zeros(50, dtype=bool)
        mask[:25] = True
        c = compile_training(model, get_strategy("ours"))
        tr = Trainer(c, graph, precision="float64", seed=0)
        opt = Adam(lr=0.05)
        first, _ = tr.train_step(feats, labels, opt, mask=mask)
        for _ in range(30):
            last, _ = tr.train_step(feats, labels, opt, mask=mask)
        assert last < first

    def test_multihead_gat_trains(self):
        graph = chung_lu(40, 200, seed=2)
        model = GAT(6, (6, 3), heads=2)
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(40, 6))
        labels = rng.integers(0, 3, size=40)
        c = compile_training(model, get_strategy("ours"))
        tr = Trainer(c, graph, precision="float64", seed=0)
        opt = Adam(lr=0.02)
        first, _ = tr.train_step(feats, labels, opt)
        for _ in range(40):
            last, _ = tr.train_step(feats, labels, opt)
        assert last < first


# ----------------------------------------------------------------------
# The arena a float32 Trainer runs its later steps in
# ----------------------------------------------------------------------
def _arena_setting(name="gcn", strategy="ours", precision="fp32"):
    from dataclasses import replace

    from repro.graph import erdos_renyi

    graph = erdos_renyi(120, 900, seed=3)
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(graph.num_vertices, 8)).astype(np.float32)
    labels = rng.integers(0, 3, size=graph.num_vertices)
    compiled = compile_training(
        MODELS.get(name)(8, 3), replace(get_strategy(strategy), precision=precision)
    )
    return graph, compiled, feats, labels


@pytest.fixture
def plans(monkeypatch):
    """Every ``compiled.memory_plan`` call made during the test."""
    from repro.frameworks.strategy import CompiledTraining

    calls = []
    memory_plan = CompiledTraining.memory_plan

    def spy(self, stats):
        calls.append(stats)
        return memory_plan(self, stats)

    monkeypatch.setattr(CompiledTraining, "memory_plan", spy)
    return calls


def _bare_engine_steps(compiled, graph, feats, labels, steps):
    """The same steps on a bare ``Engine`` with no memory plan: losses
    and the final parameters."""
    from repro.exec import Engine
    from repro.ir.autodiff import grad_seed_name
    from repro.ir.module import GRAPH_CONSTANTS

    engine = Engine(graph, precision="float32")
    params = dict(compiled.model.init_params(0))
    output = compiled.forward.outputs[0]
    optimizer, losses = Adam(lr=0.01), []
    for _ in range(steps):
        arrays = compiled.model.make_inputs(graph, feats)
        arrays.update(params)
        env = engine.bind(compiled.forward, arrays)
        fwd = engine.run_plan(compiled.fwd_plan, env, unwrap=False)
        loss, grad = softmax_cross_entropy(fwd[output], labels)
        module = compiled.bwd_plan.module
        bwd_env = {}
        for name in list(module.inputs) + list(module.params):
            if name == grad_seed_name(output):
                bwd_env[name] = grad.astype(np.float32)
            elif name in GRAPH_CONSTANTS:
                bwd_env[name] = engine.graph_constant(name)
            else:
                bwd_env[name] = fwd[name] if name in fwd else env[name]
        grads = engine.run_plan(compiled.bwd_plan, bwd_env)
        optimizer.step(
            params, {p: grads[g] for p, g in compiled.param_grads.items()}
        )
        losses.append(loss)
    return losses, params


#: A block budget small enough that every fused kernel the plans
#: classify as blocked walks on ``_arena_setting``'s 900-edge graph.
WALK_BLOCK = 128


@pytest.fixture
def walks(monkeypatch):
    """Every ``Engine._walk`` call of the test."""
    from repro.exec import Engine

    calls = []
    walk = Engine._walk

    def spy(self, run, bound):
        calls.append(bound.blocked)
        return walk(self, run, bound)

    monkeypatch.setattr(Engine, "_walk", spy)
    return calls


def _assert_arena_steps_match_bare_engine(name, strategy, budget, walks, monkeypatch):
    """Five arena steps == five bare-engine steps, both at ``budget``.

    At the walk budget every kernel the chain-aware classification
    leaves blocked walks (gat / monet / dotgat / edgeconv; gcn, sage,
    gin and rgcn run their aggregations as chains and have nothing to
    walk); at the default one nothing walks on this graph."""
    from repro.exec import blocks

    if budget == "walk":
        monkeypatch.setattr(blocks, "BLOCK_BYTES", WALK_BLOCK)
    graph, compiled, feats, labels = _arena_setting(name, strategy)
    trainer = Trainer(compiled, graph, precision="float32", seed=0)
    optimizer = Adam(lr=0.01)
    losses = [trainer.train_step(feats, labels, optimizer)[0] for _ in range(5)]
    assert trainer.engine._arena is not None
    want_losses, want_params = _bare_engine_steps(compiled, graph, feats, labels, 5)
    assert losses == want_losses, f"{name}/{strategy}"
    for p, value in want_params.items():
        got = trainer.params[p]
        assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), (
            f"{name}/{strategy}: {p}"
        )
    walkable = any(
        plan.blocked(i, True) is not None
        for plan in (compiled.fwd_plan, compiled.bwd_plan)
        for i in range(len(plan.kernels))
    )
    assert bool(walks) == (budget == "walk" and walkable), f"{name}/{strategy}"


class TestTrainerArena:
    def test_plans_once_at_the_second_step(self, plans):
        graph, compiled, feats, labels = _arena_setting()
        trainer = Trainer(compiled, graph, precision="float32", seed=0)
        optimizer = Adam(lr=0.01)
        trainer.train_step(feats, labels, optimizer)
        assert plans == [] and trainer.engine._arena is None
        trainer.train_step(feats, labels, optimizer)
        pool = trainer.engine._arena[1]
        for _ in range(3):
            trainer.train_step(feats, labels, optimizer)
        assert len(plans) == 1 and trainer.engine._arena[1] is pool
        # The stash lives in the trainer's own storage, not the arena,
        # and the next step's forward leaves its results in it again.
        stash = dict(trainer._stash)
        assert stash and not any(
            np.shares_memory(arr, pool.buffer) for arr in stash.values()
        )
        trainer.train_step(feats, labels, optimizer)
        assert all(trainer._stash[n] is arr for n, arr in stash.items())

    @pytest.mark.parametrize(
        "engine_precision, precision",
        [("float64", "fp32"), ("float32", "bf16"), ("float32", "int8")],
    )
    def test_refused_plans_are_never_made(self, plans, engine_precision, precision):
        graph, compiled, feats, labels = _arena_setting(precision=precision)
        trainer = Trainer(compiled, graph, precision=engine_precision, seed=0)
        optimizer = Adam(lr=0.01)
        for _ in range(3):
            trainer.train_step(feats, labels, optimizer)
        assert plans == [] and trainer.engine._arena is None

    def test_minibatch_epochs_never_plan(self, plans):
        # Each batch's trainer takes one step, on fresh storage.
        from repro.train import MiniBatchTrainer

        graph, compiled, feats, labels = _arena_setting("sage")
        trainer = MiniBatchTrainer(
            compiled, graph, batch_size=40, precision="float32"
        )
        epoch = trainer.train_epoch(feats, labels, Adam(lr=0.01))
        assert epoch.num_batches > 1 and plans == []

    def test_evaluate_never_plans(self, plans):
        graph, compiled, feats, labels = _arena_setting()
        trainer = Trainer(compiled, graph, precision="float32", seed=0)
        for _ in range(3):
            trainer.evaluate(feats, labels)
        assert plans == []

    @pytest.mark.parametrize("budget", ["default", "walk"])
    @pytest.mark.parametrize("name", ["gcn", "gat", "sage"])
    def test_arena_steps_equal_a_bare_engine(self, name, budget, walks, monkeypatch):
        _assert_arena_steps_match_bare_engine(name, "ours", budget, walks, monkeypatch)
        if name == "gat" and budget == "walk":
            assert walks, "no kernel walked: the walk axis is vacuous"


@pytest.mark.slow
class TestTrainerArenaExhaustive:
    @pytest.mark.parametrize("budget", ["default", "walk"])
    @pytest.mark.parametrize("strategy", ["ours", "ours-stash", "dgl-like"])
    @pytest.mark.parametrize("name", sorted(MODELS.names()))
    def test_arena_steps_equal_a_bare_engine(
        self, name, strategy, budget, walks, monkeypatch
    ):
        _assert_arena_steps_match_bare_engine(
            name, strategy, budget, walks, monkeypatch
        )
