"""The pure compile stages, run once per input object.

Four stages of the compile path are functions of their input alone: the
naive module of a model object under a precision, §4
:func:`~repro.opt.reorganize.reorganize`, Appendix B
:func:`~repro.ir.autodiff.differentiate`, and §5
:func:`~repro.opt.fusion.partition_kernels` per (mode, mapping).  A
:class:`StageMemo` runs each once per input and hands the same result
to every later request, so the strategies compiled for one model object
share one naive module, one reorganised forward, one backward and one
partition per (module, mode, mapping) — the recompute pass's boundary
probe and the fusion pass included.  Sharing is exact because no pass
mutates its input.

This module is the only caller of the three stage functions in
``src/repro``.  A :class:`~repro.session.PlanCache` keeps one memo per
model object; a direct ``compile_training`` call runs on a fresh one.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, Tuple

from repro.exec.plan import Kernel
from repro.ir.autodiff import TrainingGraph, differentiate
from repro.ir.module import Module
from repro.ir.precision import apply_precision
from repro.opt.fusion import partition_kernels
from repro.opt.reorganize import reorganize

__all__ = ["StageMemo"]


class StageMemo:
    """Identity-keyed memo of the pure compile stages of one model.

    The memo keeps the stages of the modules it holds: the model's
    naive modules and the modules its stages returned.  Holding them
    keeps their ``id()`` from being recycled while an entry lives.  Any
    other input — a module a custom pass built, a recompute-spliced
    backward that is new on every compile — runs its stage and is
    forgotten, so recompiling a model cannot grow its memo.  The model
    itself is held weakly: a plan cache keys its memos by model,
    weakly, and a memo that held its model would never be dropped.
    """

    def __init__(self) -> None:
        self._naive: Dict[tuple, Tuple[weakref.ref, Module]] = {}
        self._held: Dict[int, Module] = {}
        self._entries: Dict[tuple, Any] = {}

    def _hold(self, module: Module) -> None:
        self._held[id(module)] = module

    def _memoised(self, kind: str, module: Module, compute: Callable, *params):
        if self._held.get(id(module)) is not module:
            return compute()
        key = (kind, id(module), *params)
        if key not in self._entries:
            value = self._entries[key] = compute()
            if isinstance(value, Module):
                self._hold(value)
            elif isinstance(value, TrainingGraph):
                self._hold(value.backward)
        return self._entries[key]

    def naive(self, model, precision: str = "fp32") -> Module:
        """``model.build_module()`` under ``precision``; every precision
        derives from the one float32 build."""
        key = (id(model), precision)
        hit = self._naive.get(key)
        if hit is not None and hit[0]() is model:
            return hit[1]
        if precision == "fp32":
            module = model.build_module()
        else:
            module = apply_precision(self.naive(model), precision)
        self._naive[key] = (weakref.ref(model), module)
        self._hold(module)
        return module

    def reorganize(self, module: Module) -> Module:
        """§4 propagation postponement; ``module`` itself when no pair
        matched."""
        return self._memoised("reorganize", module, lambda: reorganize(module))

    def differentiate(self, forward: Module) -> TrainingGraph:
        """Appendix B: the backward of ``forward``."""
        return self._memoised(
            "differentiate", forward, lambda: differentiate(forward)
        )

    def partition(
        self, module: Module, *, mode: str, prefer_mapping: str
    ) -> Tuple[Kernel, ...]:
        """§5 kernel partition of ``module``."""
        return self._memoised(
            "partition", module,
            lambda: tuple(
                partition_kernels(module, mode=mode, prefer_mapping=prefer_mapping)
            ),
            mode, prefer_mapping,
        )

    def values(self) -> List[Any]:
        """Every memoised result: naive modules, then stage results
        (modules, training graphs, partitions)."""
        return [m for _, m in self._naive.values()] + list(self._entries.values())
