"""Which rows of each value a plan must compute: the receptive field,
read backwards from the rows the caller reads.

A caller that reads only some rows of a module's outputs — a serving
batch reads its seeds' — needs of each layer only the rows within
"layers left" hops of them.  :func:`ring_depths` walks back from the
outputs (ring 0, the rows read) and gives every value the *ring* whose
rows it must hold exactly: the vertices at most that many in-edge hops
from the read rows, and for an edge value the in-edges of those
vertices.  The rules, for a lone plan (a training step changes three
of them, below):

- a SCATTER's source-side vertex operand is needed one ring further out
  (the sources of ring *d*'s in-edges lie within *d* + 1 hops); every
  other operand is needed at its reader's ring;
- an edge value lives on the largest edge set any of its readers needs
  (a reader on a smaller ring takes its rows out of it);
- PARAM_GRAD, out-orientation gathers, max-gradient scatters (they read
  vertex rows by vertex, not through the edge), nodes producing
  PARAM/DENSE values, a gather whose argmax is read, and anything the
  caller is handed besides the outputs need every row: :data:`WHOLE`.

A node on ring *d* computes its ring's rows exactly and may leave any
value in the others: nothing that reads it looks there.

A training step reads its seeds' rows too, and its backward plan adds
a second fact, *support*: a gradient is exactly zero beyond some ring
(:func:`training_rings`).  Backpropagation is linear in the seed
gradient, so every value computed from a gradient is one, and its
support follows from its operands' — the seed gradient lives on ring 0,
a row-wise node or an in-edge gather keeps its operands' support, a
scatter reading a gradient at the destination keeps it, one reading it
at the source spreads it anywhere, and a sum over out-edges of a
gradient on ring *d*'s in-edges lives on ring *d* + 1.  A gradient is
computed only on the smaller of its demand and its support; a reader
that needs it further out reads ``+0.0`` there, which the whole-field
run holds too, up to the sign of a zero.  Three rules change with it:

- a sum over out-edges of a gradient on ring *d*'s edges runs on those
  edges alone (:meth:`~repro.graph.csr.Graph.row_block` ``within=``),
  home rows out to ring *d* + 1;
- a PARAM_GRAD reads its operands at the largest support of its
  gradient operands, every other row ``+0.0``: it still reduces every
  row, so its reduction keeps the whole-field shape;
- the forward reads each stash value at the ring its backward readers
  need, not whole.

:func:`receptive_hops` is the same walk read at the module's vertex
inputs: how far from the read rows an exact answer looks.

:func:`ring_step` is the recipe an engine lowers each step of a ring
run to: the row block it runs on and how each operand is cut to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.ir.functions import get_scatter_fn
from repro.ir.module import Module
from repro.ir.ops import OpKind, OpNode
from repro.ir.tensorspec import Domain

__all__ = [
    "WHOLE", "RingStep", "ring_depths", "receptive_hops", "ring_step",
    "training_rings",
]

#: The ring of "every row": deeper than any receptive field.
WHOLE = 1 << 30

_ROWS = (Domain.VERTEX, Domain.EDGE)


def _support(module: Module, gradients: Mapping[str, int]) -> Dict[str, int]:
    """Gradient value → the ring beyond which it is exactly zero.

    ``gradients`` seeds it (module inputs and their rings); every
    vertex or edge value computed from a gradient is one.
    """
    specs = module.specs
    support = dict(gradients)
    for node in module.nodes:
        terms = [support[name] for name in node.inputs if name in support]
        out = node.outputs[0]
        if not terms or specs[out].domain not in _ROWS:
            continue
        if node.kind is OpKind.SCATTER:
            fn = get_scatter_fn(node.fn)
            source_read = fn.reads_u and node.inputs[0] in support
            s = WHOLE if fn.vertex_direct_read or source_read else max(terms)
        elif node.kind is OpKind.GATHER:
            if node.fn == "sum" and node.orientation == "out":
                s = min(terms[0] + 1, WHOLE)
            elif node.fn in ("sum", "mean") and node.orientation == "in":
                s = terms[0]
            else:
                s = WHOLE
        else:
            s = max(terms)
        support[out] = s
    return support


def _whole(node: OpNode, specs, support: Mapping[str, int]) -> bool:
    """Must ``node`` run on every row, whatever its readers need?"""
    domain = specs[node.outputs[0]].domain
    if node.kind is OpKind.PARAM_GRAD or domain not in _ROWS:
        return True
    if node.kind is OpKind.GATHER:
        # A sum over out-edges of a gradient on a ring runs on its edges.
        on_ring = support.get(node.outputs[0], WHOLE) < WHOLE
        return node.orientation != "in" and not on_ring
    if node.kind is OpKind.SCATTER:
        return get_scatter_fn(node.fn).vertex_direct_read
    return False


def _needs(
    node: OpNode, ring: int, specs, support: Mapping[str, int]
) -> Dict[str, int]:
    """The ring of each operand a node running on ``ring`` reads."""
    needs = dict.fromkeys(node.all_inputs(), ring)
    if node.kind is OpKind.SCATTER and get_scatter_fn(node.fn).reads_u:
        u = node.inputs[0]
        if specs[u].domain is Domain.VERTEX:
            needs[u] = min(ring + 1, WHOLE)
    elif node.kind is OpKind.GATHER and node.orientation == "out" and ring < WHOLE:
        needs[node.inputs[0]] = support[node.inputs[0]]
    return needs


def ring_depths(
    module: Module,
    keep: Iterable[str] = (),
    *,
    reads: Optional[Mapping[str, int]] = None,
    gradients: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Value name → the ring whose rows it must hold exactly.

    A produced value's ring is also the ring its node runs on (a node is
    named by its first output; a PARAM_GRAD's is the ring it reads its
    operands at); a module input's is the largest any reader needs.
    Vertex outputs are read at ring 0; any other output and the ``keep``
    values are read whole; ``reads`` overrides both, by name.  A value
    nothing reads gets ring 0.  ``gradients`` names the module inputs
    that are gradients, with their support (see the module docstring);
    a gradient's ring is at most its support.  Readers come after their
    producers in module order, so one backward pass settles every ring.
    """
    specs = module.specs
    support = _support(module, gradients or {})
    need = dict.fromkeys(keep, WHOLE)
    need.update(
        (name, 0 if specs[name].domain is Domain.VERTEX else WHOLE)
        for name in module.outputs
    )
    need.update(reads or {})
    ring: Dict[str, int] = {}
    for node in reversed(module.nodes):
        if node.kind is OpKind.PARAM_GRAD:
            r = max(
                (support[name] for name in node.inputs if name in support),
                default=WHOLE,
            )
        # A gather's argmax names edges of the graph it ran on: only
        # the whole field's ids mean anything to a reader.
        elif _whole(node, specs, support) or any(o in need for o in node.outputs[1:]):
            r = WHOLE
        else:
            r = max(need.get(o, 0) for o in node.outputs)
            r = min(r, support.get(node.outputs[0], WHOLE))
        ring.update(dict.fromkeys(node.outputs, r))
        for name, n in _needs(node, r, specs, support).items():
            need[name] = max(need.get(name, 0), n)
    for name in list(module.inputs) + list(module.params):
        ring[name] = need.get(name, 0)
    return ring


def training_rings(
    forward: Module,
    backward: Module,
    keep: Iterable[str],
    seeds: Iterable[str],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """The rings a training step that reads only its seeds' rows runs
    its forward and backward plans on.

    ``keep`` is the forward plan's keep set (the stash), ``seeds`` the
    backward's seed-gradient inputs, each read (and supported) at ring
    0.  Each map gives every value the ring it is held on — a module
    input or parameter the caller binds whole, a backward input the
    forward returned at its forward ring, a seed gradient at ring 0 —
    and every node the ring it runs on (:func:`ring_depths`).
    """
    keep = set(keep)
    seeds = dict.fromkeys(seeds, 0)
    bwd = ring_depths(backward, gradients=seeds)
    fwd = ring_depths(forward, reads={name: bwd.get(name, 0) for name in keep})
    fwd.update(dict.fromkeys((*forward.inputs, *forward.params), WHOLE))
    held = {
        name: fwd[name] if name in keep or name in forward.outputs else WHOLE
        for name in list(backward.inputs) + list(backward.params)
    }
    held.update((name, 0) for name in seeds if name in held)
    bwd.update(held)
    return fwd, bwd


@dataclass(frozen=True)
class RingStep:
    """How one step of a run reading only the outputs' distance-0 rows
    runs, on a field laid out hop by hop (ring ``d`` is rows
    ``[0, n_d)``, its in-edges the first ``E_d`` positions of the CSC
    grouping).

    ``block`` is the row block the step runs on: ``("in", d)``, ring
    ``d``'s in-edge block, or ``("out", r, w)``, the out-edge block of
    rows ``[0, n_r)`` within ring ``w``'s in-edges (``r`` ``None``:
    every row); ``None`` runs on the whole graph.  ``cuts`` holds
    ``(position, take, pad)`` for each operand not read as held:
    ``take`` is ``"eids"`` (a whole-field edge value read at the
    block's edge ids), a block attribute naming how many leading rows to
    read, or ``None``; ``pad`` a block attribute naming the rows to fill
    with ``+0.0`` past the ring the operand is held on, or ``None``.
    On the whole graph ``cuts`` holds ``(position, domain, None)`` for
    each operand read on every row, ``+0.0`` past its ring (``domain``
    ``"vertex"`` or ``"edge"``).  ``out`` names the block attribute
    giving the output's rows.
    """

    block: Optional[Tuple]
    cuts: Tuple[Tuple[int, Optional[str], Optional[str]], ...]
    out: Optional[str] = None


def ring_step(
    node: OpNode,
    operands: Sequence[str],
    chained: bool,
    held: Callable[[str], Optional[int]],
    specs,
    widens: bool,
) -> Optional[RingStep]:
    """The :class:`RingStep` of ``node`` (or of the chain it heads:
    ``operands`` are then the chain's), or ``None`` when it runs on the
    whole field and reads nothing held on a ring.  ``held(name)`` is the
    ring a value is held on (its node runs on), ``None`` for the whole
    field.

    A node on ring ``d`` runs on ring ``d``'s in-edge block: a reader on
    an inner ring takes a prefix of a value, an edge value of the whole
    field is read at the block's edge ids, and a scatter reads its far
    operand through the block's absolute source ids (ring ``d + 1``).
    A sum over out-edges of an edge value held on ring ``w`` runs on
    those edges grouped by source; a node on a deeper ring runs as if
    there were no rings.  Under a training step's maps (``widens``) a
    gradient read past its ring reads ``+0.0`` there, and a node running
    on every row reads each ringed operand widened to every row.
    """
    ring = held(node.name)
    if node.kind is OpKind.GATHER and node.orientation == "out":
        edges_on = held(node.inputs[0])
        if edges_on is None:
            return None
        block: Optional[Tuple] = ("out", ring, edges_on)
    elif ring is not None and node.kind is not OpKind.PARAM_GRAD:
        block = ("in", ring)
    elif not widens or all(held(name) is None for name in operands):
        return None
    else:
        return RingStep(None, tuple(
            (i, specs[name].domain.value, None) for i, name in enumerate(operands)
            if held(name) is not None and specs[name].domain in _ROWS
        ))
    row_wise = not chained and node.kind in (OpKind.APPLY, OpKind.VIEW)
    far = chained or (node.kind is OpKind.SCATTER and get_scatter_fn(node.fn).reads_u)
    cuts = []
    for i, name in enumerate(operands):
        domain = specs[name].domain
        take = pad = None
        if domain is Domain.EDGE:
            if held(name) is None:
                take = "eids"
            else:
                take = "num_edges"
                pad = "num_edges" if widens else None
        elif domain is Domain.VERTEX:
            take = "num_vertices" if row_wise else None
            if widens:
                pad = "far_vertices" if i == 0 and far else "num_vertices"
        if take or pad:
            cuts.append((i, take, pad))
    by_edge = specs[node.outputs[0]].domain is Domain.EDGE
    return RingStep(block, tuple(cuts), "num_edges" if by_edge else "num_vertices")


def receptive_hops(module: Module) -> int:
    """Message-passing depth of a module: its receptive-field radius.

    An L-layer GNN needs the L-hop in-neighbourhood of its seeds for
    exact embeddings: the deepest ring (:func:`ring_depths`) any vertex
    input is read at.  Only a SCATTER reading the edge *source* reaches
    a neighbour, so a 2-layer GAT — whose per-layer softmax adds two
    destination-local gather/broadcast rounds — still reports 2, not 6.
    A module that reads every row of an input (an out-edge reduction)
    has no finite radius and reports :data:`WHOLE`.
    """
    ring = ring_depths(module)
    return max(
        (
            ring.get(name, 0) for name in module.inputs
            if module.specs[name].domain is Domain.VERTEX
        ),
        default=0,
    )
