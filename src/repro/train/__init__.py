"""Training substrate: losses, optimizers, and the full-graph and
sampled mini-batch train loops.

The loop drives a :class:`~repro.frameworks.strategy.CompiledTraining`
through the NumPy engine: forward plan → loss + gradient seed →
backward plan (which contains any recompute cone) → optimizer step.
All strategies produce identical parameter trajectories on the same
model/graph/seed — the invariant the integration tests assert.
"""

from repro.train.loop import Trainer, softmax_cross_entropy, accuracy
from repro.train.minibatch import (
    BatchRecord,
    EpochResult,
    MiniBatchTrainer,
    receptive_hops,
)
from repro.train.optim import SGD, Adam, Optimizer

__all__ = [
    "Trainer",
    "MiniBatchTrainer",
    "EpochResult",
    "BatchRecord",
    "receptive_hops",
    "softmax_cross_entropy",
    "accuracy",
    "SGD",
    "Adam",
    "Optimizer",
]
