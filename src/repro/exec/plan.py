"""Execution plans: fused kernel groups plus boundary/liveness analysis.

A plan assigns every node of a module to a *kernel* (one GPU launch).
Fusion only changes this assignment — never the math — so the concrete
engine and the analytic counters share one structure:

- values crossing kernel boundaries are DRAM traffic and owe memory
  while live,
- values internal to a kernel live in on-chip storage: zero DRAM IO,
  zero DRAM memory (the fusion saving of §5).  The concrete engine
  honours this on the host too: an *aggregation chain*
  (:class:`AggregationChain`: ``copy_u`` → optional × one weight per
  edge or per edge and head → ``sum`` / ``mean``) runs as one product
  that never builds its edge tensors, the backward's per-edge dot
  product ``reduce_to_shape(copy_v(a) · copy_u(b))`` as one
  ``u_dot_v`` step, and a fused kernel with other internal edge tensors
  runs as one walk over cache-sized blocks of home rows
  (:class:`BlockedKernel`), so those are never materialised whole,
- values in the plan's ``keep`` set (module outputs + the training
  stash) survive to the end of the plan even when internal — a kernel
  producing a kept internal value writes it out (that is FuseGNN's
  "fuse but stash" behaviour the paper contrasts against in §6).

``VIEW`` nodes are aliases: their outputs share storage with their
input's root value and never count as traffic or allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
    Set, Tuple,
)

from repro.exec.rings import ring_depths
from repro.graph.stats import GraphStats
from repro.ir.functions import get_scatter_fn
from repro.ir.module import Module
from repro.ir.ops import OpKind, OpNode
from repro.ir.tensorspec import Domain

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.cost_form import CostForms
    from repro.opt.stages import StageMemo

__all__ = [
    "Kernel", "ExecPlan", "plan_module", "KernelIO", "AggregationChain",
    "BlockStep", "BlockedKernel", "Liveness",
]


@dataclass(frozen=True)
class Kernel:
    """One launch: an ordered group of nodes plus its thread mapping.

    ``mapping`` is ``"edge"`` / ``"vertex"`` for graph kernels (the §5
    thread-mapping axis), ``"dense"`` for expensive Apply / param-grad
    library kernels, and ``"none"`` for kernels made only of views.
    ``atomic`` marks vertex reductions executed under edge-balanced
    mapping (Fig. 5(d)) — cross-thread reduction via atomics.
    """

    nodes: Tuple[OpNode, ...]
    mapping: str
    label: str
    atomic: bool = False
    reduce_scatter: bool = False  # internal Gather→Scatter; smem-buffered

    def output_names(self) -> List[str]:
        return [o for node in self.nodes for o in node.outputs]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class KernelIO:
    """Boundary traffic of one kernel (names, not bytes)."""

    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    internal: Tuple[str, ...]


@dataclass(frozen=True)
class AggregationChain:
    """Nodes of one kernel that run as a single step at ``head``, never
    building the edge tensors between them.  Two shapes:

    - an *aggregation*: ``SCATTER copy_u`` → (``APPLY mul`` by a weight)
      → ``GATHER sum|mean``, run as :func:`repro.exec.kernels.aggregate`
      of the far-endpoint rows and the weight.  ``head.orientation``
      names the home side; the scatter copies the *far* one (``copy_u``
      for ``"in"``, ``copy_v`` for ``"out"``).  The weight is
      EDGE-domain, one element per edge or one per edge and head: its
      feature shape is a leading prefix of the message's (GAT's
      ``(H,)`` attention against ``(H, F)`` messages);
    - a *dot step*: ``APPLY reduce_to_shape`` summing away the trailing
      axis of ``APPLY mul(copy_v(a), copy_u(b))`` — the backward's
      per-edge dot product, the gSDDMM partner of the aggregation — run
      as the registered ``scatter`` kernel ``u_dot_v(u=b, v=a)``.

    The ``interior`` nodes' outputs are kernel-internal and read by
    chain members only, so executing ``head`` in their place leaves
    nothing undefined that anything reads.  A far copy may be interior
    to several chains of its kernel (GAT's backward ``copy_v`` of the
    output gradient feeds an aggregation and a dot step).
    """

    head: OpNode
    #: Copies, then the ``mul`` if any: nodes that never run.
    interior: Tuple[OpNode, ...]
    #: What the step reads: the far-endpoint rows, then the weight, if
    #: any (an aggregation); ``(b, a)`` (a dot step).
    operands: Tuple[str, ...]
    #: An aggregation's EDGE-domain factor (its last operand), if any.
    weight: Optional[str] = None
    #: A dot step's registered scatter; ``None`` for an aggregation.
    scatter: Optional[str] = None

    @property
    def over_out_edges(self) -> bool:
        """An aggregation reducing each vertex's out-edges: its far rows
        are destinations, which a partition's ghost destinations hold."""
        return self.scatter is None and self.head.orientation == "out"


@dataclass(frozen=True)
class BlockStep:
    """One node of a blocked kernel's walk (see :class:`BlockedKernel`)."""

    node: OpNode
    #: Per data input: read the *whole* array through the block's
    #: absolute far-endpoint ids instead of the block's own rows.
    whole: Tuple[bool, ...]
    #: Outputs that leave the walk — the kernel's escaping writes and
    #: what its ``post`` nodes read — as ``(name, is_edge_domain)``.
    spill: Tuple[Tuple[str, bool], ...]
    #: Block-local values nothing later in the walk reads.
    dead: Tuple[str, ...]
    #: Set when ``node`` heads a chain: the step is the chain's product
    #: (or dot step) on the block, its far operand read whole.
    chain: Optional[AggregationChain] = None


@dataclass(frozen=True)
class BlockedKernel:
    """How a fused kernel executes as one walk over home-row blocks.

    ``pre`` nodes read only kernel inputs and run whole, once; ``steps``
    run once per block of ``orientation``-side rows on block-sized
    operands; ``post`` nodes cannot run per block (an opposite-
    orientation gather, a row-reducing PARAM_GRAD, anything downstream
    of one) and run whole on what the walk spilled.  Relative order
    within each phase is the kernel's own.  When classified with
    aggregation chains, a chain appears in its phase as its gather node
    alone.
    """

    orientation: str
    pre: Tuple[OpNode, ...]
    steps: Tuple[BlockStep, ...]
    post: Tuple[OpNode, ...]
    #: Kernel inputs (or ``pre`` results) the steps read by home rows …
    home_rows: Tuple[str, ...]
    #: … and edge-domain ones they read in the block's edge order.
    edge_rows: Tuple[str, ...]
    #: Elements per edge row of the widest set of block-local edge
    #: tensors live at once: what one edge of block costs in cache.
    row_elements: int


class Liveness(Dict[str, Tuple[int, int]]):
    """:meth:`ExecPlan.liveness`: root → ``(def kernel, last-use
    kernel)``, plus the same intervals indexed by their end.

    ``deaths[i]`` names the roots whose last consumer is kernel ``i`` —
    what a ledger frees, and an engine's program frees, after kernel ``i`` —
    so neither scans every interval after every kernel.  Built once per
    plan and shared by every walk and run: read-only.
    """

    def __init__(self, lives: Mapping[str, Tuple[int, int]]) -> None:
        super().__init__(lives)
        self.deaths: Dict[int, List[str]] = {}
        for root, (_, last) in lives.items():
            self.deaths.setdefault(last, []).append(root)


@dataclass
class ExecPlan:
    """A module partitioned into kernels, with keep-set semantics."""

    module: Module
    kernels: List[Kernel]
    keep: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        planned = [n.name for k in self.kernels for n in k.nodes]
        expected = [n.name for n in self.module.nodes]
        if sorted(planned) != sorted(expected):
            raise ValueError(
                "plan must cover every module node exactly once: "
                f"module has {len(expected)}, plan has {len(planned)}"
            )
        self._validate_schedule()
        self._alias = self._build_alias()
        self._producer_kernel = self._build_producer_index()
        self._io = self._build_kernel_io()
        # Derived facts, computed on first use and shared by every run:
        # the plan is immutable, and a cache that lives here dies with it.
        self._lives: Optional[Liveness] = None
        self._forms: Dict[FrozenSet[str], "CostForms"] = {}
        self._result_names: Optional[Tuple[str, ...]] = None
        self._argmax_demand: Optional[FrozenSet[str]] = None
        self._rings: Optional[Dict[str, int]] = None
        self._consumers: Optional[Dict[str, List[OpNode]]] = None
        self._chains: Dict[int, Dict[str, AggregationChain]] = {}
        self._blocked: Dict[Tuple[int, bool], Optional[BlockedKernel]] = {}
        #: The engine's lowered programs of this plan, one per run
        #: configuration (:mod:`repro.exec.engine`): every engine that
        #: runs the plan — one per sampled batch — shares them.
        self.programs: Dict[tuple, object] = {}

    def _validate_schedule(self) -> None:
        """Every value must be defined before any kernel consumes it."""
        defined = set(self.module.inputs) | set(self.module.params)
        for kernel in self.kernels:
            for node in kernel.nodes:
                for used in node.all_inputs():
                    if used not in defined:
                        raise ValueError(
                            f"kernel schedule uses {used!r} before it is "
                            f"defined (kernel {kernel.label!r})"
                        )
                defined.update(node.outputs)

    # ------------------------------------------------------------------
    # Alias resolution (views)
    # ------------------------------------------------------------------
    def _build_alias(self) -> Dict[str, str]:
        alias: Dict[str, str] = {}
        for node in self.module.nodes:
            if node.kind is OpKind.VIEW:
                root = node.inputs[0]
                alias[node.outputs[0]] = alias.get(root, root)
        return alias

    def root_of(self, name: str) -> str:
        """Storage root of a value (resolving view chains)."""
        return self._alias.get(name, name)

    # ------------------------------------------------------------------
    def _build_producer_index(self) -> Dict[str, int]:
        idx: Dict[str, int] = {}
        for i, kernel in enumerate(self.kernels):
            for node in kernel.nodes:
                for o in node.outputs:
                    idx[o] = i
        return idx

    def producer_kernel(self, name: str) -> Optional[int]:
        """Kernel index producing ``name`` (None for module inputs)."""
        return self._producer_kernel.get(name)

    # ------------------------------------------------------------------
    # Boundary IO
    # ------------------------------------------------------------------
    def kernel_io(self, index: int) -> KernelIO:
        return self._io[index]

    def _build_kernel_io(self) -> List[KernelIO]:
        # The kernels whose *computing* nodes read each storage root.
        # VIEW nodes are excluded: creating an alias moves no data, so a
        # value whose only cross-kernel "consumers" are views does not
        # escape — only a non-view reader (directly or through an alias,
        # which root resolution folds in) forces a DRAM write.
        readers: Dict[str, Set[int]] = {}
        for i, kernel in enumerate(self.kernels):
            for node in kernel.nodes:
                if node.kind is not OpKind.VIEW:
                    for name in node.all_inputs():
                        readers.setdefault(self.root_of(name), set()).add(i)
        # Kept and output values, and the roots their aliases resolve to.
        held = set(self.keep) | set(self.module.outputs)
        held |= {self.root_of(v) for v in self._alias if v in held}
        return [
            self._kernel_io(i, readers, held) for i in range(len(self.kernels))
        ]

    def _kernel_io(
        self, index: int, readers: Mapping[str, Set[int]], held: Set[str]
    ) -> KernelIO:
        kernel = self.kernels[index]
        inside = {o for node in kernel.nodes for o in node.outputs}
        reads: List[str] = []
        seen: Set[str] = set()
        for node in kernel.nodes:
            if node.kind is OpKind.VIEW:
                continue
            for name in node.all_inputs():
                root = self.root_of(name)
                # A read is internal only when the *storage* is produced
                # by this kernel; an alias minted in-kernel over foreign
                # storage still stages that storage from DRAM.
                if root in inside:
                    continue
                if root not in seen:
                    seen.add(root)
                    reads.append(name)

        writes: List[str] = []
        internal: List[str] = []
        for node in kernel.nodes:
            if node.kind is OpKind.VIEW:
                continue
            for o in node.outputs:
                if o in held or any(j != index for j in readers.get(o, ())):
                    writes.append(o)
                else:
                    internal.append(o)
        return KernelIO(tuple(reads), tuple(writes), tuple(internal))

    # ------------------------------------------------------------------
    # Liveness: value -> (def kernel, last-use kernel)
    # ------------------------------------------------------------------
    def liveness(self) -> Liveness:
        """Lifetime of every boundary-crossing root value.

        Returns root value name → ``(first kernel after which it exists,
        last kernel that reads it)``.  Module inputs get def index -1;
        values in ``keep`` or module outputs get last index
        ``len(kernels)`` (survive the plan).  Inputs nothing ever reads
        are dead on arrival: they get last index 0 — freed as soon as
        the plan starts running — so a walk that does not pin them never
        carries them through the phase (kernel-less plans keep the
        ``(-1, -1)`` sentinel).

        The plan is immutable, so the result is computed once and
        shared — treat it as read-only.
        """
        if self._lives is not None:
            return self._lives
        n = len(self.kernels)
        lives: Dict[str, Tuple[int, int]] = {}
        for name in list(self.module.inputs) + list(self.module.params):
            lives[self.root_of(name)] = (-1, -1)
        for i in range(n):
            io = self.kernel_io(i)
            for w in io.writes:
                root = self.root_of(w)
                if root not in lives:
                    lives[root] = (i, i)
            for r in io.reads:
                root = self.root_of(r)
                d, _ = lives.get(root, (i, i))
                lives[root] = (d, i)
        protected = set(self.keep) | set(self.module.outputs)
        for name in protected:
            root = self.root_of(name)
            if root in lives:
                lives[root] = (lives[root][0], n)
        if n > 0:
            for root, (d, last) in lives.items():
                if last < 0:
                    lives[root] = (d, 0)
        self._lives = Liveness(lives)
        return self._lives

    def cost_forms(self, pinned: Iterable[str] = ()) -> "CostForms":
        """Every analytic counter of this plan as integer affine forms
        in (V, E), with ``pinned`` values never freed by the ledger:
        :meth:`CostForms.evaluate <repro.exec.cost_form.CostForms>`
        prices them on any stats.  Lowered on first use per pinned root
        set and shared, like :meth:`liveness`."""
        key = frozenset(self.root_of(p) for p in pinned)
        if key not in self._forms:
            from repro.exec.cost_form import lower  # it walks the ledger

            known = next(iter(self._forms.values()), None)
            self._forms[key] = lower(self, key, known and known.kernels)
        return self._forms[key]

    # ------------------------------------------------------------------
    # What a run returns, and how its fused kernels execute
    # ------------------------------------------------------------------
    def result_names(self) -> Tuple[str, ...]:
        """What a run returns, in order: module outputs, then the keep
        set in module definition order (never in set order, which
        follows ``PYTHONHASHSEED``)."""
        if self._result_names is None:
            module = self.module
            defined = list(module.inputs) + list(module.params)
            defined += [o for node in module.nodes for o in node.outputs]
            position = {name: i for i, name in enumerate(defined)}
            names = list(dict.fromkeys(module.outputs))
            names += sorted(set(self.keep) - set(names), key=position.__getitem__)
            self._result_names = tuple(names)
        return self._result_names

    def argmax_demand(self) -> FrozenSet[str]:
        """Gather(max) nodes whose argmax output is actually consumed
        (by a node of the module, or by the caller as a result)."""
        if self._argmax_demand is None:
            consumers = self._consumer_map()
            wanted = set(self.result_names())
            self._argmax_demand = frozenset(
                node.name
                for node in self.module.nodes
                if node.kind is OpKind.GATHER and node.fn == "max"
                and (consumers.get(node.outputs[1]) or node.outputs[1] in wanted)
            )
        return self._argmax_demand

    def rings(self) -> Dict[str, int]:
        """The ring each value must be exact on when a caller reads only
        the outputs' rows at hop distance 0 — and each node runs on
        (:func:`~repro.exec.rings.ring_depths`; the keep set is read
        whole).  Computed once and shared: read-only."""
        if self._rings is None:
            self._rings = ring_depths(self.module, self.keep)
        return self._rings

    def _consumer_map(self) -> Dict[str, List[OpNode]]:
        if self._consumers is None:
            self._consumers = self.module.consumer_map()
        return self._consumers

    def chains(self, index: int) -> Dict[str, AggregationChain]:
        """Aggregation chains of kernel ``index``, keyed by the name of
        every member node — interior and gather alike (see
        :func:`_classify_chains`)."""
        if index not in self._chains:
            self._chains[index] = _classify_chains(self, index)
        return self._chains[index]

    def blocked(self, index: int, chains: bool = False) -> Optional[BlockedKernel]:
        """Walk classification of kernel ``index``; ``None`` when it
        runs node by node (see :func:`_classify_blocked`).  With
        ``chains`` the kernel's aggregation chains are single steps
        whose interiors do not exist; without, every node is its own —
        what a run that cannot take chains (reduced precision,
        ``check_finite``) executes."""
        key = (index, chains and bool(self.chains(index)))
        if key not in self._blocked:
            self._blocked[key] = _classify_blocked(
                self, index, self.chains(index) if key[1] else {}
            )
        return self._blocked[key]


# ----------------------------------------------------------------------
def _classify_chains(plan: ExecPlan, index: int) -> Dict[str, AggregationChain]:
    """Find the chains of one kernel (see :class:`AggregationChain`).

    An aggregation ends in a ``GATHER sum|mean`` whose input is made in
    this kernel by the far-endpoint copy (``copy_u`` under ``"in"``,
    ``copy_v`` under ``"out"``; the home-endpoint copy sums to
    ``degree · x``, not an aggregation), optionally through one
    ``APPLY mul`` that leaves the message's feature shape alone and
    whose other operand is EDGE-domain with a feature shape that,
    trailing ones dropped, leads the message's: one weight per edge,
    per edge and head, or per element.  A dot step is an ``APPLY
    reduce_to_shape`` whose target is exactly its input's feature shape
    minus the trailing axis, over an ``APPLY mul`` of a ``copy_v`` and
    a ``copy_u`` of that same shape.

    Every intermediate must be kernel-internal — not kept, not an
    output, unread by other kernels.  A ``mul`` is read by its chain's
    head only.  A copy may have several readers provided each is a
    member of a chain the copy is interior to (never one reading it as
    a weight); a chain whose copy is read otherwise is dropped, and with
    it every chain that shared the copy.  Operands and result share one
    spec dtype, so the step accumulates in the dtype the edge-tensor
    path would.
    """
    kernel = plan.kernels[index]
    specs = plan.module.specs
    internal = set(plan.kernel_io(index).internal)
    consumers = plan._consumer_map()
    produced = {o: node for node in kernel.nodes for o in node.outputs}

    def made(name: str, kind: OpKind, fn: str) -> Optional[OpNode]:
        """The kernel-internal ``kind:fn`` node making ``name``, if any."""
        node = produced.get(name)
        if (
            node is not None and node.kind is kind and node.fn == fn
            and name in internal
        ):
            return node
        return None

    def mul_under(head: OpNode) -> Optional[OpNode]:
        """The ``mul`` making ``head``'s input, if ``head`` alone reads it."""
        mul = made(head.inputs[0], OpKind.APPLY, "mul")
        if mul is not None and consumers.get(mul.outputs[0]) == [head]:
            return mul
        return None

    def aggregation(gather: OpNode) -> Optional[AggregationChain]:
        copy = "copy_u" if gather.orientation == "in" else "copy_v"
        mul = mul_under(gather)
        if mul is None:
            scatter = made(gather.inputs[0], OpKind.SCATTER, copy)
            return scatter and AggregationChain(gather, (scatter,), scatter.inputs)
        message, weight = mul.inputs
        if made(message, OpKind.SCATTER, copy) is None:
            message, weight = weight, message
        scatter = made(message, OpKind.SCATTER, copy)
        shape = specs[message].feat_shape
        prefix = specs[weight].feat_shape
        while prefix[-1:] == (1,):
            prefix = prefix[:-1]
        if (
            scatter is None or weight == message
            or specs[weight].domain is not Domain.EDGE
            or shape[:len(prefix)] != prefix
            or specs[mul.outputs[0]].feat_shape != shape
        ):
            return None
        return AggregationChain(
            gather, (scatter, mul), (scatter.inputs[0], weight), weight=weight
        )

    def dot(reduce: OpNode) -> Optional[AggregationChain]:
        mul = mul_under(reduce)
        if mul is None:
            return None
        u = v = None
        for name in mul.inputs:
            u = u or made(name, OpKind.SCATTER, "copy_u")
            v = v or made(name, OpKind.SCATTER, "copy_v")
        shape = specs[mul.outputs[0]].feat_shape
        if (
            u is None or v is None
            or tuple(reduce.attrs["target_shape"]) != shape[:-1]
            or any(specs[name].feat_shape != shape for name in mul.inputs)
        ):
            return None
        return AggregationChain(
            reduce, (u, v, mul), (u.inputs[0], v.inputs[0]), scatter="u_dot_v"
        )

    chains: List[AggregationChain] = []
    for node in kernel.nodes:
        if node.kind is OpKind.GATHER and node.fn in ("sum", "mean"):
            chain = aggregation(node)
        elif node.kind is OpKind.APPLY and node.fn == "reduce_to_shape":
            chain = dot(node)
        else:
            continue
        if chain is None:
            continue
        if len({specs[n].dtype for n in chain.operands + node.outputs}) == 1:
            chains.append(chain)
    # An interior value may be read only by members of the chains it is
    # interior to: a shared copy stands or falls with all its readers.
    while True:
        holders: Dict[str, Set[str]] = {}
        for c in chains:
            members = {n.name for n in (c.head,) + c.interior}
            for node in c.interior:
                holders.setdefault(node.name, set()).update(members)
        kept = [
            c for c in chains
            if all(
                {r.name for r in consumers[n.outputs[0]]} <= holders[n.name]
                for n in c.interior
            )
        ]
        if len(kept) == len(chains):
            break
        chains = kept
    found: Dict[str, AggregationChain] = {}
    for chain in chains:
        for node in chain.interior + (chain.head,):
            found.setdefault(node.name, chain)
    return found


def _classify_blocked(
    plan: ExecPlan, index: int, chains: Mapping[str, AggregationChain]
) -> Optional[BlockedKernel]:
    """Split a fused kernel into the phases of an endpoint-blocked walk.

    Eligible: a fused kernel that owns at least one kernel-internal
    EDGE-domain value the walk can keep block-sized.  Per-op kernels,
    kernels with nothing edge-sized to save, and kernels bearing a
    ``VIEW`` (aliases whole arrays) or ``max_grad`` (indexes by global
    edge id) keep the per-node path.

    A chain in ``chains`` is one node — its head, reading the chain's
    operands: an aggregation is a home-row step whose far operand is
    whole, a dot step is the ``u_dot_v`` scatter it runs as.  Its
    interior is not built, so it is not an edge tensor to keep
    block-sized, and a kernel whose only internal edge tensors belong to
    chains has nothing to walk for.

    The home side is the widest gather's orientation.  In kernel order,
    each node lands in the first phase that can run it:

    - *block* needs row-local arithmetic (a scatter, a lightweight
      vertex/edge apply, a home-orientation gather) on operands that
      exist per block.  A scatter's far-endpoint operand must be a
      whole array, so one computed inside the walk disqualifies it.
    - anything else — PARAM_GRADs and expensive applies, whose
      ``sum(axis=0)``/BLAS bits depend on the row count (contract
      item 2), PARAM/DENSE results, opposite-orientation gathers —
      runs whole: *pre* when it reads no walk result, else *post*,
      as does everything downstream of a post node.  Vertex applies
      fed only by kernel inputs are hoisted to *pre* as well: nothing
      edge-sized is saved by slicing them.
    """
    nodes = tuple(
        node for node in plan.kernels[index].nodes
        if node.name not in chains or chains[node.name].head is node
    )
    specs = plan.module.specs
    if len(nodes) < 2 or any(
        n.kind is OpKind.VIEW
        or (n.kind is OpKind.SCATTER and get_scatter_fn(n.fn).vertex_direct_read)
        for n in nodes
    ):
        return None
    gathers = [n for n in nodes if n.kind is OpKind.GATHER]
    orientation = max(
        gathers, key=lambda n: specs[n.outputs[0]].feat_elements
    ).orientation if gathers else "in"

    def far_input(name: str) -> Optional[int]:
        """Position of a scatter's far-endpoint operand, if it reads one."""
        fn = get_scatter_fn(name)
        if orientation == "in":
            return 0 if fn.reads_u else None
        return (1 if fn.reads_u else 0) if fn.reads_v else None

    def reads(node: OpNode) -> Tuple[str, ...]:
        """Data operands the node's step reads (a chain head: the chain's)."""
        return chains[node.name].operands if node.name in chains else node.inputs

    phase: Dict[str, str] = {}  # value produced in this kernel -> its phase
    by_phase: Dict[str, List[OpNode]] = {"pre": [], "block": [], "post": []}
    far_of: Dict[str, Optional[int]] = {}
    for node in nodes:
        sources = {phase.get(name) for name in reads(node) + node.params}
        domain = specs[node.outputs[0]].domain
        row_local = (
            node.kind is not OpKind.PARAM_GRAD
            and not node.is_expensive()
            and domain in (Domain.VERTEX, Domain.EDGE)
        )
        chain = chains.get(node.name)
        if node.kind is OpKind.GATHER:
            row_local = node.orientation == orientation
            far_of[node.name] = None if chain is None else 0
        elif node.kind is OpKind.SCATTER or chain is not None:
            # A dot step is the scatter it runs as.
            far_of[node.name] = far_input(node.fn if chain is None else chain.scatter)
        elif domain is Domain.VERTEX and "block" not in sources:
            row_local = False
        far = far_of.get(node.name)
        if far is not None and phase.get(reads(node)[far]) == "block":
            row_local = False
        if "post" in sources or ("block" in sources and not row_local):
            where = "post"
        else:
            where = "block" if row_local else "pre"
        by_phase[where].append(node)
        phase.update(dict.fromkeys(node.outputs, where))

    # What leaves the walk as whole arrays; if that is every edge
    # tensor it computes, there is nothing to keep block-sized.
    walk = by_phase["block"]
    leaves = set(plan.kernel_io(index).writes)
    leaves.update(
        name for node in by_phase["post"] for name in reads(node) + node.params
    )
    if not any(
        specs[o].domain is Domain.EDGE and o not in leaves
        for node in walk for o in node.outputs
    ):
        return None

    # What the steps read per block, and where each block-local value
    # is read last (an argmax nobody consumes is never minted).
    demand = plan.argmax_demand()
    home_rows: List[str] = []
    edge_rows: List[str] = []
    last_read: Dict[str, int] = {}
    for i, node in enumerate(walk):
        for pos, name in enumerate(reads(node)):
            domain = specs[name].domain
            if pos == far_of.get(node.name) or domain not in (Domain.VERTEX, Domain.EDGE):
                continue
            last_read[name] = i
            if phase.get(name) != "block":
                rows = edge_rows if domain is Domain.EDGE else home_rows
                if name not in rows:
                    rows.append(name)
    steps: List[BlockStep] = []
    live = {name: specs[name].feat_elements for name in edge_rows}
    row_elements = sum(live.values())
    for i, node in enumerate(walk):
        outputs = node.outputs if node.name in demand else node.outputs[:1]
        for o in outputs:
            last_read.setdefault(o, i)
            if specs[o].domain is Domain.EDGE:
                live[o] = specs[o].feat_elements
        row_elements = max(row_elements, sum(live.values()))
        dead = tuple(name for name, last in last_read.items() if last == i)
        for name in dead:
            live.pop(name, None)
        far = far_of.get(node.name)
        steps.append(BlockStep(
            node=node,
            whole=tuple(pos == far for pos in range(len(reads(node)))),
            spill=tuple(
                (o, specs[o].domain is Domain.EDGE)
                for o in outputs if o in leaves
            ),
            dead=dead,
            chain=chains.get(node.name),
        ))
    return BlockedKernel(
        orientation=orientation,
        pre=tuple(by_phase["pre"]),
        steps=tuple(steps),
        post=tuple(by_phase["post"]),
        home_rows=tuple(home_rows),
        edge_rows=tuple(edge_rows),
        row_elements=max(row_elements, 1),
    )


# ----------------------------------------------------------------------
def _node_mapping(node: OpNode, specs) -> str:
    """Natural thread mapping of a single node (Fig. 5(a) I and IV)."""
    if node.kind is OpKind.VIEW:
        return "none"
    if node.is_expensive():
        return "dense"
    if node.kind is OpKind.GATHER:
        return "vertex"
    if node.kind is OpKind.SCATTER:
        return "edge"
    # Lightweight apply: mapping follows its domain.
    domain = specs[node.outputs[0]].domain
    if domain is Domain.EDGE:
        return "edge"
    if domain is Domain.VERTEX:
        return "vertex"
    return "dense"


def plan_module(
    module: Module,
    *,
    keep: Iterable[str] = (),
    mode: str = "per_op",
    prefer_mapping: str = "vertex",
    stages: Optional["StageMemo"] = None,
) -> ExecPlan:
    """Partition a module into kernels.

    ``mode`` selects the fusion scope (see
    :mod:`repro.opt.fusion` for the real partitioners):

    - ``"per_op"`` — one kernel per node (views merged into consumers),
    - ``"macro"`` / ``"edge_chains"`` / ``"unified"`` — delegated to the
      fusion pass, through ``stages`` (a fresh
      :class:`~repro.opt.stages.StageMemo` when ``None``), so plans of
      one module, mode and mapping share one partition.
    """
    if mode == "per_op":
        kernels = _per_op_kernels(module)
    else:
        if stages is None:
            from repro.opt.stages import StageMemo

            stages = StageMemo()
        kernels = list(
            stages.partition(module, mode=mode, prefer_mapping=prefer_mapping)
        )
    return ExecPlan(module=module, kernels=kernels, keep=frozenset(keep))


def _per_op_kernels(module: Module) -> List[Kernel]:
    kernels: List[Kernel] = []
    for node in module.nodes:
        mapping = _node_mapping(node, module.specs)
        kernels.append(
            Kernel(nodes=(node,), mapping=mapping, label=f"{node.kind.value}:{node.fn}")
        )
    return kernels
