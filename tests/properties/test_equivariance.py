"""Permutation equivariance of whole models.

A GNN is equivariant to vertex relabeling: permuting the vertex ids
(and the input features with the same permutation) permutes the outputs
and leaves parameter gradients untouched.  This exercises *every* layer
of the stack at once — topology views, kernels, plans, engine — and is
the strongest single end-to-end invariant available.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frameworks import compile_training, get_strategy
from repro.graph import Graph, chung_lu
from repro.models import GAT, GCN, GIN, DotGAT, GraphSAGE, MoNet
from repro.train import Trainer
from repro.train.loop import softmax_cross_entropy

MODELS = {
    "gat": lambda: GAT(5, (4, 3), heads=2),
    "gcn": lambda: GCN(5, (4, 3)),
    "sage": lambda: GraphSAGE(5, (4, 3)),
    "gin": lambda: GIN(5, (4, 3)),
    "dotgat": lambda: DotGAT(5, (4, 3)),
    "monet": lambda: MoNet(5, (4, 3), num_kernels=2, pseudo_dim=1),
}


def run_model(model, graph, feats, labels):
    compiled = compile_training(model, get_strategy("ours"))
    trainer = Trainer(compiled, graph, precision="float64", seed=7)
    fwd = trainer.forward(feats)
    logits = fwd[trainer.output_name]
    loss, seed_grad = softmax_cross_entropy(logits, labels)
    grads = trainer.backward(fwd, seed_grad)
    return logits, loss, grads


class TestPermutationEquivariance:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_outputs_permute_and_grads_invariant(self, name):
        graph = chung_lu(40, 220, seed=11)
        model = MODELS[name]()
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(40, model.in_dim))
        labels = rng.integers(0, model.hidden_dims[-1], size=40)
        perm = rng.permutation(40)

        logits, loss, grads = run_model(model, graph, feats, labels)

        pgraph = Graph(perm[graph.src], perm[graph.dst], graph.num_vertices)
        pfeats = np.empty_like(feats)
        pfeats[perm] = feats
        plabels = np.empty_like(labels)
        plabels[perm] = labels
        plogits, ploss, pgrads = run_model(model, pgraph, pfeats, plabels)

        assert np.allclose(plogits[perm], logits, rtol=1e-9, atol=1e-11)
        assert ploss == pytest.approx(loss, rel=1e-10)
        for k in grads:
            assert np.allclose(pgrads[k], grads[k], rtol=1e-8, atol=1e-10), k

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gcn_equivariance_fuzzed(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 30))
        m = int(rng.integers(1, 80))
        graph = chung_lu(n, m, seed=seed)
        model = GCN(4, (3,))
        feats = rng.normal(size=(n, 4))
        labels = rng.integers(0, 3, size=n)
        perm = rng.permutation(n)
        logits, _, _ = run_model(model, graph, feats, labels)
        pfeats = np.empty_like(feats)
        pfeats[perm] = feats
        plabels = np.empty_like(labels)
        plabels[perm] = labels
        pgraph = Graph(perm[graph.src], perm[graph.dst], graph.num_vertices)
        plogits, _, _ = run_model(model, pgraph, pfeats, plabels)
        assert np.allclose(plogits[perm], logits, rtol=1e-9, atol=1e-11)
