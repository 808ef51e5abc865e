"""Per-op, multi-backend kernel registry.

Every executable IR function is registered here per *kind* (``apply``,
``scatter``, ``gather``, ``param_grad``) and per *backend*.  The pure
NumPy kernels in :mod:`repro.exec.kernels` form the always-available
``reference`` backend — the differential oracle every other backend is
tested against.  Alternative backends override individual ``(kind, fn)``
pairs and transparently fall back to the reference implementation for
everything else, so a backend that only accelerates segment reductions
still executes the full model zoo.

Shipped backends
----------------
``reference`` (alias ``numpy``)
    The NumPy oracle (segment sums are one CSR × dense product through
    scipy).  Always available, bit-exact by definition.
``blocked``
    Pure NumPy with cache-sized edge-chunking for ``max`` reductions
    (:mod:`repro.exec.backend_blocked`); sums are the reference's.
    Always available; bit-identical to reference.
A further backend is a module that calls :func:`declare_backend` once
and decorates its overrides with :func:`register_backend`; importing it
makes the name usable everywhere a backend name is accepted.

Kernel signatures (what :func:`register_backend` expects):

- ``apply``:      ``fn(inputs, params, attrs[, out]) -> array``
- ``scatter``:    ``fn(graph, inputs[, out]) -> array``
- ``gather``:     ``fn(graph, edge_values, orientation, want_argmax)
  -> (array, argmax_or_None)``
- ``param_grad``: ``fn(inputs, params, attrs) -> array`` (natural
  parameter shape, no leading row axis)

An apply or scatter kernel that declares the keyword ``out`` has an
in-place path: handed an array of its result's shape and dtype, it
writes the result there and returns that array, bit-identical to the
fresh call (:meth:`BackendKernels.writes_out`).  That is how an
arena-backed engine puts a value into its slab.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KINDS",
    "REFERENCE_BACKEND",
    "BACKEND_ALIASES",
    "BackendInfo",
    "BackendKernels",
    "available_backends",
    "backend_info",
    "canonical_backend",
    "declare_backend",
    "get_backend",
    "register_backend",
    "registered_functions",
    "resolve_kernel",
]

KINDS = ("apply", "scatter", "gather", "param_grad")

REFERENCE_BACKEND = "reference"

#: User-facing spellings accepted anywhere a backend name is.
BACKEND_ALIASES = {"numpy": REFERENCE_BACKEND}

@dataclass(frozen=True)
class BackendInfo:
    """Registration metadata for one backend."""

    name: str
    #: True when every kernel reproduces the reference bit-for-bit
    #: (same operations in the same order).  False means reductions may
    #: be reassociated; the differential suite then asserts a ≤ 1e-5
    #: relative tolerance instead of exact equality.
    bit_identical: bool
    description: str


# (kind, fn) -> backend name -> implementation
_KERNELS: Dict[Tuple[str, str], Dict[str, Callable]] = {}
_BACKENDS: Dict[str, BackendInfo] = {}
_LOADED = False


def declare_backend(name: str, *, bit_identical: bool, description: str) -> BackendInfo:
    """Announce a backend before registering kernels under it."""
    info = BackendInfo(name=name, bit_identical=bit_identical, description=description)
    _BACKENDS[name] = info
    return info


def register_backend(kind: str, fn: str, backend: str = REFERENCE_BACKEND):
    """Decorator: register an implementation of ``(kind, fn)``.

    ``@register_backend("apply", "relu")`` registers the reference
    implementation; ``@register_backend("gather", "sum",
    backend="blocked")`` overrides one op for one backend.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; expected one of {KINDS}")

    def deco(impl: Callable) -> Callable:
        _KERNELS.setdefault((kind, fn), {})[backend] = impl
        return impl

    return deco


def _ensure_loaded() -> None:
    """Import the kernel modules so every backend has registered."""
    global _LOADED
    if not _LOADED:
        _LOADED = True
        # kernels.py registers the reference backend and pulls in the
        # blocked module at the bottom of the file.
        importlib.import_module("repro.exec.kernels")


def canonical_backend(name: str) -> str:
    """Resolve aliases and validate that ``name`` is a declared backend
    (``ValueError`` otherwise, listing the ones that are)."""
    _ensure_loaded()
    resolved = BACKEND_ALIASES.get(name, name)
    if resolved in _BACKENDS:
        return resolved
    raise ValueError(
        f"unknown backend {name!r}; available backends: {available_backends()}"
    )


def available_backends() -> List[str]:
    """Every declared backend, reference first."""
    _ensure_loaded()
    rest = sorted(n for n in _BACKENDS if n != REFERENCE_BACKEND)
    return [REFERENCE_BACKEND] + rest


def backend_info(name: str) -> BackendInfo:
    """Metadata for one (available) backend."""
    return _BACKENDS[canonical_backend(name)]


def registered_functions(kind: str) -> List[str]:
    """Every fn name registered under ``kind`` (any backend)."""
    _ensure_loaded()
    return sorted(fn for k, fn in _KERNELS if k == kind)


def resolve_kernel(kind: str, fn: str, backend: str = REFERENCE_BACKEND) -> Callable:
    """Implementation of ``(kind, fn)`` under ``backend``.

    Falls back to the reference implementation when the backend does
    not override this particular op.  ``KeyError`` when the op itself
    is unknown — the same contract the monolithic dispatchers had.
    """
    _ensure_loaded()
    table = _KERNELS.get((kind, fn))
    if table is None:
        label = "reduce" if kind == "gather" else ""
        raise KeyError(
            f"no {kind} kernel for {label + ' ' if label else ''}{fn!r}"
        )
    impl = table.get(backend)
    if impl is None:
        impl = table.get(REFERENCE_BACKEND)
    if impl is None:  # pragma: no cover - reference registers everything
        raise KeyError(f"no backend for {kind} kernel {fn!r}")
    return impl


class BackendKernels:
    """Bound dispatch bundle for one backend.

    The engine holds one of these and calls :meth:`apply` /
    :meth:`scatter` / :meth:`gather` / :meth:`param_grad` with the same
    signatures as the module-level reference dispatchers in
    :mod:`repro.exec.kernels`.  Per-op resolution is cached — dispatch
    cost is one dict lookup per node.
    """

    def __init__(self, name: str):
        self.name = canonical_backend(name)
        self.info = _BACKENDS[self.name]
        self._cache: Dict[Tuple[str, str], Callable] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BackendKernels({self.name!r})"

    def _resolve(self, kind: str, fn: str) -> Callable:
        key = (kind, fn)
        impl = self._cache.get(key)
        if impl is None:
            impl = resolve_kernel(kind, fn, self.name)
            self._cache[key] = impl
        return impl

    def overrides(self, kind: str, fn: str) -> bool:
        """Does this backend ship its own ``(kind, fn)`` implementation?"""
        _ensure_loaded()
        return self.name in _KERNELS.get((kind, fn), {})

    def writes_out(self, kind: str, fn: str) -> bool:
        """Does this backend's ``(kind, fn)`` take an ``out`` to write into?"""
        return "out" in inspect.signature(self._resolve(kind, fn)).parameters

    # -- dispatch entry points (signatures mirror repro.exec.kernels) --
    # ``out`` is passed on only when given: callers hand it to kernels
    # that :meth:`writes_out`.
    def apply(
        self,
        fn: str,
        inputs: Sequence[np.ndarray],
        params: Sequence[np.ndarray] = (),
        attrs: Optional[dict] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        impl = self._resolve("apply", fn)
        if out is None:
            return impl(list(inputs), list(params), attrs or {})
        return impl(list(inputs), list(params), attrs or {}, out=out)

    def scatter(
        self,
        fn: str,
        graph,
        inputs: Sequence[np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        impl = self._resolve("scatter", fn)
        if out is None:
            return impl(graph, list(inputs))
        return impl(graph, list(inputs), out=out)

    def gather(
        self,
        reduce: str,
        graph,
        edge_values: np.ndarray,
        *,
        orientation: str = "in",
        want_argmax: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        return self._resolve("gather", reduce)(
            graph, edge_values, orientation, want_argmax
        )

    def param_grad(
        self,
        fn: str,
        inputs: Sequence[np.ndarray],
        params: Sequence[np.ndarray],
        attrs: dict,
    ) -> np.ndarray:
        return self._resolve("param_grad", fn)(list(inputs), list(params), attrs)


_BUNDLES: Dict[str, BackendKernels] = {}


def get_backend(name: str = REFERENCE_BACKEND) -> BackendKernels:
    """Shared dispatch bundle for ``name`` (aliases accepted)."""
    bundle = _BUNDLES.get(name)
    if bundle is None:
        bundle = BackendKernels(name)
        _BUNDLES[name] = bundle
        _BUNDLES[bundle.name] = bundle
    return bundle
