"""Peak-aware kernel scheduling: reorder launches to shrink the ledger.

Fusion (§5) decides *which* nodes share a kernel; it emits kernels in
whatever topological order the group DAG walk produced.  That order is
one of many valid schedules, and the §6 memory ledger — each boundary
value resident from its producing kernel to its last consumer — makes
the choice material: launching a producer early parks its output in
DRAM across every unrelated kernel scheduled in between.

:func:`schedule_kernels` re-sorts a plan's kernels by greedy list
scheduling over the liveness intervals: at every step, among the
dependency-ready kernels, pick the one whose execution leaves the
smallest live-byte footprint (several priority rules are tried and the
best simulated peak wins; the incoming order is always a candidate, so
the result is never worse than the input).  Reordering is an accounting
transform like fusion itself — but legality is *proved*, not assumed:
every candidate order passes the race detector
(:func:`repro.analysis.races.check_order`) before it may win, so values
never change (``verify_plan`` holds on the output) and a caller-supplied
conflicting order is rejected with RP-coded diagnostics
(:class:`SchedulingRaceError`).

The pass form (``schedule_memory``) slots after ``fusion`` in an
:class:`~repro.frameworks.strategy.ExecutionStrategy`'s ``pass_names``;
:func:`with_memory_schedule` derives such a strategy from any base.
Sizes at compile time come from a nominal reference workload — the
schedule depends only on *relative* sizes, and vertex/edge tensors keep
their ratio across graphs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.memory import ledger_walk, root_sizes
from repro.exec.plan import ExecPlan
from repro.graph.stats import GraphStats
from repro.opt.pipeline import Pass, PassContext
from repro.registry import register_pass

__all__ = [
    "schedule_kernels",
    "SchedulingRaceError",
    "ScheduleMemoryPass",
    "with_memory_schedule",
    "REFERENCE_STATS",
]


class SchedulingRaceError(ValueError):
    """A proposed kernel order races (inverts a data dependence).

    Raised when a caller-supplied candidate order fails the race
    detector; ``diagnostics`` carries the RP-coded findings naming the
    exact conflicting kernel pairs
    (:func:`repro.analysis.races.check_order`).
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "\n".join("  " + d.render() for d in self.diagnostics)
        super().__init__(
            f"candidate kernel order races "
            f"({len(self.diagnostics)} conflict(s)):\n{lines}"
        )

#: Nominal workload used to size values when scheduling at compile time
#: (no concrete stats yet).  Mean degree 8 keeps edge tensors an order
#: of magnitude heavier than vertex tensors, like the real datasets.
REFERENCE_STATS = GraphStats.regular(4096, 8)


# ----------------------------------------------------------------------
def _kernel_deps(plan: ExecPlan) -> List[Set[int]]:
    """Kernel-level dependency sets (producer kernels of each input)."""
    producer: Dict[str, int] = {}
    for i, kernel in enumerate(plan.kernels):
        for node in kernel.nodes:
            for o in node.outputs:
                producer[o] = i
    deps: List[Set[int]] = [set() for _ in plan.kernels]
    for i, kernel in enumerate(plan.kernels):
        for node in kernel.nodes:
            for name in node.all_inputs():
                p = producer.get(name)
                if p is None:
                    p = producer.get(plan.root_of(name))
                if p is not None and p != i:
                    deps[i].add(p)
    return deps


def _greedy_order(
    plan: ExecPlan,
    sizes: Dict[str, int],
    protected: Set[str],
    priority: str,
) -> List[int]:
    """One greedy list schedule under a ready-kernel priority rule.

    ``priority`` scores each ready kernel by its allocated vs freed
    bytes: ``"net"`` minimises the footprint delta, ``"alloc"``
    minimises the transient allocation, ``"free"`` maximises the bytes
    released.  Ties break on the incoming kernel index, so the result
    is deterministic.  This is a heuristic's own estimate, not the
    ledger: every order it proposes is scored by
    :func:`repro.exec.memory.ledger_walk`.
    """
    n = len(plan.kernels)
    deps = _kernel_deps(plan)
    consumers: Dict[str, Set[int]] = {}
    for i in range(n):
        for r in plan.kernel_io(i).reads:
            consumers.setdefault(plan.root_of(r), set()).add(i)

    resident: Set[str] = {
        plan.root_of(name)
        for name in list(plan.module.inputs) + list(plan.module.params)
    } & sizes.keys()
    pending = [set(d) for d in deps]
    ready = sorted(i for i in range(n) if not pending[i])
    done: Set[int] = set()
    order: List[int] = []
    while ready:
        best: Optional[Tuple[Tuple[int, int, int], int]] = None
        for i in ready:
            io = plan.kernel_io(i)
            write_roots = {plan.root_of(w) for w in io.writes} & sizes.keys()
            alloc = sum(
                sizes[r] for r in write_roots if r not in resident
            )
            freed = 0
            touched = {plan.root_of(x) for x in io.reads} | write_roots
            for r in touched:
                if r in protected or (r not in resident and r not in write_roots):
                    continue
                if consumers.get(r, set()) <= (done | {i}):
                    freed += sizes.get(r, 0)
            if priority == "alloc":
                key = (alloc, alloc - freed, i)
            elif priority == "free":
                key = (-freed, alloc, i)
            else:
                key = (alloc - freed, alloc, i)
            if best is None or key < best[0]:
                best = (key, i)
        i = best[1]
        ready.remove(i)
        done.add(i)
        order.append(i)
        io = plan.kernel_io(i)
        resident |= {plan.root_of(w) for w in io.writes} & sizes.keys()
        for r in {plan.root_of(x) for x in io.reads} | {
            plan.root_of(w) for w in io.writes
        }:
            if r in resident and r not in protected:
                if consumers.get(r, set()) <= done:
                    resident.discard(r)
        for j in range(n):
            if j not in done and j not in ready:
                pending[j].discard(i)
                if not pending[j]:
                    ready.append(j)
        ready.sort()
    return order


def schedule_kernels(
    plan: ExecPlan,
    stats: Optional[GraphStats] = None,
    *,
    pinned: Sequence[str] = (),
    candidates: Optional[Sequence[Sequence[int]]] = None,
) -> ExecPlan:
    """Reorder a plan's kernels to minimise the ledger's live-byte peak.

    Greedy list scheduling over the liveness intervals, evaluated with
    the exact ledger simulation; the incoming order competes as a
    candidate, so the returned plan's peak is never worse.  Returns the
    input plan object unchanged when no candidate improves it.

    Every order — the greedy ones and any caller-supplied
    ``candidates`` — is validated by the race detector
    (:func:`repro.analysis.races.check_order`) before it may win: a
    caller candidate that inverts a data dependence raises
    :class:`SchedulingRaceError` with the RP-coded diagnostics, and a
    greedy candidate that races (a bug in the priority rules, never by
    design) is discarded rather than trusted.
    """
    from repro.analysis.races import check_order

    if len(plan.kernels) <= 2 and not candidates:
        return plan
    sizes = root_sizes(plan, stats if stats is not None else REFERENCE_STATS)
    pinned_roots = {plan.root_of(p) for p in pinned}
    protected = {
        plan.root_of(x) for x in set(plan.keep) | set(plan.module.outputs)
    } | pinned_roots

    identity = list(range(len(plan.kernels)))
    pool: List[List[int]] = [identity]
    for supplied in candidates or ():
        supplied = list(supplied)
        diags = check_order(plan, supplied)
        if diags:
            raise SchedulingRaceError(diags)
        pool.append(supplied)
    for priority in ("net", "alloc", "free"):
        order = _greedy_order(plan, sizes, protected, priority)
        if not check_order(plan, order):
            pool.append(order)
    scored = [
        (ledger_walk(plan, sizes, order=order, pinned=pinned_roots).peak_bytes, k)
        for k, order in enumerate(pool)
    ]
    best_peak, best_k = min(scored)
    if best_k == 0 or pool[best_k] == identity:
        return plan
    order = pool[best_k]
    return ExecPlan(
        module=plan.module,
        kernels=[plan.kernels[i] for i in order],
        keep=plan.keep,
    )


# ======================================================================
@register_pass("schedule_memory")
class ScheduleMemoryPass(Pass):
    """Pipeline form: reschedule the fused plans for minimum peak.

    Runs after ``fusion`` (it needs ``fwd_plan``/``bwd_plan`` in the
    context) and rewrites them in place.  Compile-time sizes come from
    :data:`REFERENCE_STATS` unless constructed with explicit stats.
    """

    name = "schedule_memory"

    def __init__(self, stats: Optional[GraphStats] = None) -> None:
        self.stats = stats

    def run(self, ctx: PassContext) -> None:
        moved = 0
        for key in ("fwd_plan", "bwd_plan"):
            plan = ctx.state.get(key)
            if plan is None:
                if key == "fwd_plan":
                    ctx.require(key)  # pipeline-aware error
                continue
            scheduled = schedule_kernels(plan, self.stats)
            if scheduled is not plan:
                moved += 1
            ctx.state[key] = scheduled
        ctx.state["_memory_scheduled"] = moved

    def summary(self, ctx: PassContext) -> str:
        moved = ctx.state.pop("_memory_scheduled", 0)
        return f"{moved} plan(s) reordered" if moved else "no-op"


def with_memory_schedule(strategy) -> "object":
    """Derive a strategy that appends the ``schedule_memory`` pass.

    The derived strategy differs from its base only in ``pass_names``
    (and a ``+memsched`` name suffix), so the plan cache keeps the two
    apart while every other knob — fusion scope, recompute policy,
    partitioning — carries over unchanged.
    """
    from repro.opt.pipeline import DEFAULT_TRAINING_PASSES

    names = strategy.pass_names or DEFAULT_TRAINING_PASSES
    if "schedule_memory" in names:
        return strategy
    return replace(
        strategy,
        name=f"{strategy.name}+memsched",
        pass_names=tuple(names) + ("schedule_memory",),
    )
