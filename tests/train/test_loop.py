"""Tests for losses and the Trainer loop."""

import numpy as np
import pytest

from repro.frameworks import compile_training, get_strategy
from repro.graph import chung_lu
from repro.models import GCN, GAT
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
            def forward(self, features):
                arrays = self.compiled.model.make_inputs(self.graph, features)
                arrays.update(self.params)
                env = self._fwd_env = self.engine.bind(self.compiled.forward, arrays)
                return self.engine.run_plan(self.compiled.fwd_plan, env, unwrap=False)

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
