"""Optimizers over named parameter dicts."""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer(abc.ABC):
    """Updates a parameter dict in place from a gradient dict.

    Parameters missing from the gradient dict are left untouched
    (their gradient is identically zero).
    """

    @abc.abstractmethod
    def step(self, params: Dict[str, np.ndarray], grads: Dict[str, np.ndarray]) -> None:
        ...


class SGD(Optimizer):
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, lr: float = 1e-2, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.momentum = momentum
        self._velocity: Dict[str, np.ndarray] = {}

    def step(self, params, grads) -> None:
        for name, grad in grads.items():
            if name not in params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            if self.momentum:
                v = self._velocity.get(name)
                v = self.momentum * v + grad if v is not None else grad.copy()
                self._velocity[name] = v
                update = v
            else:
                update = grad
            params[name] = params[name] - self.lr * update


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015)."""

    def __init__(
        self,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params, grads) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for name, grad in grads.items():
            if name not in params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            m, v = self._m.get(name), self._v.get(name)
            if m is None:  # first step of this parameter
                m, v = np.zeros_like(grad), np.zeros_like(grad)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            self._m[name], self._v[name] = m, v
            m_hat = m / (1 - b1 ** self._t)
            v_hat = v / (1 - b2 ** self._t)
            params[name] = params[name] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
