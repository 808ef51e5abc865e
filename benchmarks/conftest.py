"""Shared helpers for the per-figure benchmark suite.

Every test here does two things:

1. **Analytic reproduction** — builds the figure's entry of
   :data:`repro.bench.figures.FIGURES` (the experiment at the paper's
   published scale, through the counter/cost-model pipeline) and
   asserts the paper's qualitative shape (who wins, roughly by what
   factor).  The suite only reads ``benchmarks/results/``:
   ``python -m repro.bench`` writes it and
   ``test_golden_regression.py`` compares.
2. **Wall-clock signal** — times one concrete NumPy-engine step of a
   scaled-down version of the same workload via pytest-benchmark.  The
   NumPy engine executes identical kernels regardless of strategy (its
   wall time validates functional cost, not GPU behaviour), so
   wall-clock comparisons across strategies chiefly reflect operator
   count and recompute overhead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.figures import FIGURES
from repro.frameworks import compile_training, get_strategy
from repro.graph import Graph, chung_lu, get_dataset
from repro.graph.generators import batch_point_clouds
from repro.models.base import GNNModel
from repro.train import Adam, Trainer


def make_step_fn(
    model: GNNModel,
    graph: Graph,
    strategy: str,
    *,
    seed: int = 0,
):
    """A zero-argument callable running one full training step."""
    compiled = compile_training(model, get_strategy(strategy))
    trainer = Trainer(compiled, graph, precision="float32", seed=seed)
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(graph.num_vertices, model.in_dim)).astype(np.float32)
    labels = rng.integers(
        0, model.hidden_dims[-1], size=graph.num_vertices
    )
    opt = Adam(lr=1e-3)

    def step():
        return trainer.train_step(feats, labels, opt)

    return step


@pytest.fixture(scope="session")
def figures():
    """:data:`FIGURES` built on first use, once per session: the
    per-figure shape tests and the golden comparison share one build."""

    class Built(dict):
        def __missing__(self, name):
            self[name] = FIGURES[name]()
            return self[name]

    return Built()


@pytest.fixture(scope="session")
def cora_graph() -> Graph:
    return get_dataset("cora").graph()


@pytest.fixture(scope="session")
def pubmed_graph() -> Graph:
    return get_dataset("pubmed").graph()


@pytest.fixture(scope="session")
def reddit_small_graph() -> Graph:
    """A further-scaled Reddit-like graph for wall-clock steps."""
    return chung_lu(6_000, 300_000, alpha=1.6, seed=3)


@pytest.fixture(scope="session")
def modelnet_small() -> Graph:
    """Batch of 4 clouds × 512 points, k=20 — wall-clock EdgeConv."""
    g, _ = batch_point_clouds(4, 512, 20, seed=1)
    return g
