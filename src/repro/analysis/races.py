"""Kernel race detection: happens-before from read/write/alias sets.

An :class:`~repro.exec.plan.ExecPlan` emits kernels in one legal order,
but :class:`~repro.exec.multi.MultiEngine`'s threaded overlap mode runs
them concurrently, and any pass proposing another order must prove it.
This module is the single authority on when that is sound:

- at the **value** level the IR is SSA (every root written by exactly
  one kernel), so the only native hazard is RAW: a consumer must follow
  its producer;
- at the **storage** level an arena :class:`~repro.exec.memory
  .MemoryPlan` deliberately recycles bytes between lifetime-disjoint
  roots, which manufactures WAR/WAW hazards: the kernel that redefines a
  slab's bytes must stay after every reader of the previous tenant.

:func:`may_overlap` is the API an executor must consult before
overlapping two kernels (:func:`hazard_waves` groups a plan into waves
of such kernels); :func:`check_order` is what any pass proposing a
reordering must call, returning RP1xx diagnostics
naming the exact conflicting kernel pairs and the resource they race on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity, SourceLocation
from repro.exec.plan import ExecPlan

__all__ = [
    "KernelAccess",
    "Conflict",
    "kernel_access",
    "conflicts",
    "happens_before",
    "may_overlap",
    "check_order",
    "kernel_dependencies",
    "hazard_waves",
    "RaceChecker",
]


@dataclass(frozen=True)
class KernelAccess:
    """Storage roots one kernel touches at its boundary (views resolved)."""

    reads: FrozenSet[str]
    writes: FrozenSet[str]


@dataclass(frozen=True)
class Conflict:
    """One hazard between an (earlier, later) kernel pair.

    ``kind`` is ``"RAW"``/``"WAR"``/``"WAW"`` assuming the first kernel
    executes before the second; ``resource`` names the value root (value
    hazards) or ``"slab:<r1>|<r2>"`` (storage hazards through arena
    byte reuse).
    """

    kind: str
    resource: str


def kernel_access(plan: ExecPlan, index: int) -> KernelAccess:
    """Boundary read/write root sets of kernel ``index``."""
    io = plan.kernel_io(index)
    return KernelAccess(
        reads=frozenset(plan.root_of(r) for r in io.reads),
        writes=frozenset(plan.root_of(w) for w in io.writes),
    )


def _slab_ranges(memory_plan) -> Dict[str, Tuple[int, int]]:
    return {
        name: (slab.offset, slab.offset + slab.size)
        for name, slab in memory_plan.slabs.items()
    }


def _bytes_intersect(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def conflicts(
    plan: ExecPlan,
    first: int,
    second: int,
    *,
    memory_plan=None,
) -> List[Conflict]:
    """All hazards if kernel ``first`` executes before kernel ``second``.

    Value-level RAW/WAR/WAW on shared roots, plus — when ``memory_plan``
    is given — storage-level hazards between *distinct* roots whose arena
    slabs share bytes.
    """
    a, b = kernel_access(plan, first), kernel_access(plan, second)
    found: List[Conflict] = []
    for root in sorted(a.writes & b.reads):
        found.append(Conflict("RAW", root))
    for root in sorted(a.reads & b.writes):
        found.append(Conflict("WAR", root))
    for root in sorted(a.writes & b.writes):
        found.append(Conflict("WAW", root))
    if memory_plan is not None:
        ranges = _slab_ranges(memory_plan)
        pairs = (
            ("RAW", a.writes, b.reads),
            ("WAR", a.reads, b.writes),
            ("WAW", a.writes, b.writes),
        )
        for kind, first_roots, second_roots in pairs:
            for r1 in sorted(first_roots & set(ranges)):
                for r2 in sorted(second_roots & set(ranges)):
                    if r1 == r2:
                        continue  # same storage already a value hazard
                    if _bytes_intersect(ranges[r1], ranges[r2]):
                        found.append(Conflict(kind, f"slab:{r1}|{r2}"))
    return found


def may_overlap(
    plan: ExecPlan, k1: int, k2: int, *, memory_plan=None
) -> bool:
    """May kernels ``k1`` and ``k2`` run concurrently?

    True exactly when the pair shares no storage with at least one
    writer in either direction — the contract the async executor must
    consult before overlapping two launches.
    """
    return not conflicts(plan, k1, k2, memory_plan=memory_plan) and not conflicts(
        plan, k2, k1, memory_plan=memory_plan
    )


def happens_before(
    plan: ExecPlan, *, memory_plan=None
) -> List[Set[int]]:
    """Hazard graph: ``deps[j]`` = kernels that must precede kernel ``j``.

    Built from every pairwise conflict in the plan's emitted order, so
    it subsumes the producer-only dependence sets whenever a memory plan
    recycles storage.
    """
    n = len(plan.kernels)
    deps: List[Set[int]] = [set() for _ in range(n)]
    for j in range(n):
        for i in range(j):
            if conflicts(plan, i, j, memory_plan=memory_plan):
                deps[j].add(i)
    return deps


def kernel_dependencies(plan: ExecPlan) -> List[Set[int]]:
    """Happens-before hazards plus value-level dataflow edges.

    :func:`happens_before` orders kernels by *root*-level conflicts,
    which misses one concrete-execution dependence: a VIEW node
    materialises an aliased value name without writing its root, so the
    kernel holding the view must still run before any kernel reading
    the view's output.  Those producer edges are added here from
    :meth:`~repro.exec.plan.ExecPlan.producer_kernel` over every node
    input.  Adding edges only removes overlap, so the "unordered
    implies ``may_overlap``" guarantee is preserved.
    """
    deps = happens_before(plan)
    for k, kernel in enumerate(plan.kernels):
        for node in kernel.nodes:
            for name in node.inputs:
                j = plan.producer_kernel(name)
                if j is not None and j != k:
                    deps[k].add(j)
    return deps


def hazard_waves(plan: ExecPlan) -> List[List[int]]:
    """Level decomposition of the plan's hazard + dataflow DAG.

    Wave ``w`` holds every kernel whose longest dependence chain from a
    source has length ``w``.  Because a conflict between ``i`` and
    ``j`` puts ``i`` into ``kernel_dependencies(plan)[j]``, two kernels
    in the same wave never conflict — each wave is an antichain that
    :func:`may_overlap` certifies pairwise, which is what lets
    :class:`~repro.exec.multi.MultiEngine` run a whole wave
    concurrently.
    """
    deps = kernel_dependencies(plan)
    n = len(plan.kernels)
    level = [0] * n
    for k in range(n):
        for i in deps[k]:
            level[k] = max(level[k], level[i] + 1)
    waves: List[List[int]] = [[] for _ in range(max(level, default=-1) + 1)]
    for k in range(n):
        waves[level[k]].append(k)
    return waves


def check_order(
    plan: ExecPlan,
    order: Sequence[int],
    *,
    memory_plan=None,
    phase: Optional[str] = None,
) -> List[Diagnostic]:
    """Validate a proposed kernel execution ``order`` against all hazards.

    Returns RP103 if ``order`` is not a permutation of the plan's
    kernels, RP101 for every inverted value dependence (the later kernel
    of a RAW/WAR/WAW pair scheduled first), and RP104 for every slab
    reuse the new order breaks.  An empty list proves the reordering is
    sound: executing ``order`` produces the plan's exact values.
    """
    n = len(plan.kernels)
    if sorted(order) != list(range(n)):
        return [
            Diagnostic(
                code="RP103",
                severity=Severity.ERROR,
                message=(
                    f"proposed order {list(order)} is not a permutation "
                    f"of the plan's {n} kernel(s)"
                ),
                location=SourceLocation(phase=phase),
            )
        ]
    position = {k: t for t, k in enumerate(order)}
    diags: List[Diagnostic] = []
    for j in range(n):
        for i in range(j):
            if position[i] < position[j]:
                continue  # relative order preserved
            for c in conflicts(plan, i, j, memory_plan=memory_plan):
                code = "RP104" if c.resource.startswith("slab:") else "RP101"
                diags.append(
                    Diagnostic(
                        code=code,
                        severity=Severity.ERROR,
                        message=(
                            f"{c.kind} hazard on {c.resource!r}: kernel "
                            f"{i} ({plan.kernels[i].label!r}) must precede "
                            f"kernel {j} ({plan.kernels[j].label!r}) but the "
                            f"proposed order runs it at step "
                            f"{position[i]} after step {position[j]}"
                        ),
                        location=SourceLocation(
                            phase=phase, kernel=i, kernel2=j, value=c.resource
                        ),
                    )
                )
    return diags


class RaceChecker:
    """Bundle checker: RP1xx over every phase's (proposed) kernel order.

    Each :class:`~repro.analysis.analyzer.PlanArtifact` may carry a
    ``proposed_order`` (a reordering some pass wants to execute); absent
    one, the plan's emitted order is validated — which also proves the
    hazard graph itself is order-consistent with slab reuse.
    """

    name = "races"
    codes = ("RP101", "RP103", "RP104")

    def check(self, bundle) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for artifact in bundle.plans:
            order = artifact.proposed_order
            if order is None:
                order = list(range(len(artifact.plan.kernels)))
            diags.extend(
                check_order(
                    artifact.plan,
                    order,
                    memory_plan=artifact.memory_plan,
                    phase=artifact.phase,
                )
            )
        return diags

