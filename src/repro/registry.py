"""Unified name → object registries with decorator registration.

Every user-facing lookup in the library (models, execution strategies,
optimization passes, GPUs, datasets) goes through one generic
:class:`Registry`, so all of them share the same behaviour:

- decorator registration (``@register_model("gat")`` …) — third-party
  code extends the library without editing its source,
- duplicate-name rejection (pass ``replace=True`` to override),
- uniform ``KeyError`` messages with did-you-mean suggestions.

The registries themselves live here; the built-in entries are added by
the modules that define them (``repro.models``, ``repro.frameworks``,
``repro.opt.pipeline``, ``repro.gpu.spec``, ``repro.graph.datasets``),
so importing :mod:`repro` populates everything.

Entry conventions
-----------------
=========  =============================================================
registry   entry
=========  =============================================================
MODELS     factory ``(in_dim, num_classes) -> GNNModel``
STRATEGIES ``ExecutionStrategy`` instance (keyed by its ``.name``)
PASSES     ``Pass`` subclass (instantiated with no arguments)
GPUS       ``GPUSpec`` instance (keyed by its ``.name``)
DATASETS   zero-argument builder ``() -> Dataset``
=========  =============================================================
"""

from __future__ import annotations

import difflib
import numbers
from typing import Any, Callable, Dict, Iterator, List, Optional, TypeVar

__all__ = [
    "Registry",
    "MODELS",
    "STRATEGIES",
    "PASSES",
    "GPUS",
    "DATASETS",
    "register_model",
    "register_strategy",
    "register_pass",
    "register_gpu",
    "register_dataset",
    "whole_count",
]

T = TypeVar("T")


class Registry:
    """A named mapping from string keys to registered objects.

    Behaves like a read-only :class:`dict` (``in``, ``len``, iteration
    over names, ``[name]``) plus :meth:`add` / :meth:`register` for
    population, :meth:`get` with did-you-mean errors, and :meth:`resolve`
    for arguments that take a name or the entry itself.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    # -- population ----------------------------------------------------
    def add(self, name: str, obj: T, *, replace: bool = False) -> T:
        """Register ``obj`` under ``name``; reject duplicates."""
        if not isinstance(name, str) or not name:
            raise TypeError(
                f"{self.kind} registry keys must be non-empty strings, "
                f"got {name!r}"
            )
        if name in self._entries and not replace:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                "pass replace=True to override"
            )
        self._entries[name] = obj
        return obj

    def register(
        self, name: Optional[str] = None, *, replace: bool = False
    ) -> Callable[[T], T]:
        """Decorator form of :meth:`add`.

        ``@reg.register("key")`` registers the decorated object under
        ``key``; with no name the object's ``__name__`` (or ``.name``
        attribute) is used.
        """

        def deco(obj: T) -> T:
            key = name
            if key is None:
                key = getattr(obj, "name", None) or getattr(obj, "__name__", None)
            self.add(key, obj, replace=replace)
            return obj

        return deco

    def remove(self, name: str) -> None:
        """Drop one entry (primarily for test cleanup)."""
        self._entries.pop(name, None)

    _RAISE = object()

    # -- lookup --------------------------------------------------------
    def get(self, name: str, default: Any = _RAISE) -> Any:
        """Look up ``name``.

        With no ``default``, a missing name raises a ``KeyError`` with a
        did-you-mean suggestion; with one, it is returned instead
        (``dict.get``-style, for code treating the registry as a dict).
        """
        try:
            return self._entries[name]
        except KeyError:
            if default is not Registry._RAISE:
                return default
            raise KeyError(self._unknown_message(name)) from None

    def resolve(self, entry: Any) -> Any:
        """A string through :meth:`get`; anything else (an entry built
        by the caller) as it is."""
        return self.get(entry) if isinstance(entry, str) else entry

    def _unknown_message(self, name: str) -> str:
        msg = f"unknown {self.kind} {name!r}"
        close = difflib.get_close_matches(str(name), self._entries, n=1, cutoff=0.6)
        if close:
            msg += f"; did you mean {close[0]!r}?"
        return msg + f" available: {self.names()}"

    def names(self) -> List[str]:
        return sorted(self._entries)

    # -- mapping protocol ----------------------------------------------
    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[str]:
        return self.names()

    def values(self) -> List[Any]:
        return [self._entries[k] for k in self.names()]

    def items(self) -> List:
        return [(k, self._entries[k]) for k in self.names()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {self.names()})"


# ======================================================================
# The library's five registries.
# ======================================================================
MODELS = Registry("model")
STRATEGIES = Registry("strategy")
PASSES = Registry("pass")
GPUS = Registry("GPU")
DATASETS = Registry("dataset")


def register_model(
    name: str, *, replace: bool = False
) -> Callable[[Callable], Callable]:
    """Decorator: register a ``(in_dim, num_classes) -> GNNModel`` factory."""
    return MODELS.register(name, replace=replace)


def _register_named(
    registry: Registry, obj: Any, *, replace: bool
) -> Any:
    """Shared helper for registries keyed by the entry's ``.name``.

    ``obj`` may be the instance itself or a zero-argument factory
    (evaluated eagerly); returns what the caller passed so both the
    direct-call and decorator forms compose.
    """
    entry = obj() if callable(obj) else obj
    key = getattr(entry, "name", None)
    if not key:
        raise TypeError(
            f"register_{registry.kind.lower()} needs an object with a "
            f"non-empty .name attribute, got {entry!r}"
        )
    registry.add(key, entry, replace=replace)
    return obj if callable(obj) else entry


def register_strategy(strategy: Any = None, *, replace: bool = False) -> Any:
    """Register an :class:`~repro.frameworks.strategy.ExecutionStrategy`.

    Accepts either the strategy instance directly::

        register_strategy(ExecutionStrategy(name="mine", ...))

    or decorator form over a zero-argument factory (evaluated eagerly)::

        @register_strategy
        def _mine():
            return ExecutionStrategy(name="mine", ...)
    """
    if strategy is None:
        return lambda obj: _register_named(STRATEGIES, obj, replace=replace)
    return _register_named(STRATEGIES, strategy, replace=replace)


def register_pass(
    name: Optional[str] = None, *, replace: bool = False
) -> Callable:
    """Decorator: register a :class:`~repro.opt.pipeline.Pass` subclass.

    Usable bare (``@register_pass`` — keyed by the class's ``name``
    attribute) or with an explicit key (``@register_pass("my-pass")``).
    """
    if name is not None and not isinstance(name, str):
        # Bare @register_pass usage: `name` is the decorated class.
        cls = name
        return PASSES.register(replace=replace)(cls)
    return PASSES.register(name, replace=replace)


def register_gpu(gpu: Any = None, *, replace: bool = False) -> Any:
    """Register a :class:`~repro.gpu.spec.GPUSpec` (keyed by ``.name``)."""
    if gpu is None:
        return lambda obj: _register_named(GPUS, obj, replace=replace)
    return _register_named(GPUS, gpu, replace=replace)


def register_dataset(
    name: str, *, replace: bool = False
) -> Callable[[Callable], Callable]:
    """Decorator: register a zero-argument ``() -> Dataset`` builder."""
    return DATASETS.register(name, replace=replace)


def whole_count(value: Any, name: str) -> int:
    """``value`` as a Python int; bools, non-whole numbers and values
    below one are refused, naming ``name``.

    The one check of every count a caller sets: feature widths, GPU and
    batch counts, the serving compaction interval.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not value >= 1
        or not float(value).is_integer()
    ):
        raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")
    return int(value)
