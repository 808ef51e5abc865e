"""Which rows of each value a plan must compute: the receptive field,
read backwards from the rows the caller reads.

A caller that reads only some rows of a module's outputs — a serving
batch reads its seeds' — needs of each layer only the rows within
"layers left" hops of them.  :func:`ring_depths` walks back from the
outputs (ring 0, the rows read) and gives every value the *ring* whose
rows it must hold exactly: the vertices at most that many in-edge hops
from the read rows, and for an edge value the in-edges of those
vertices.  The rules:

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

:func:`receptive_hops` is the same walk read at the module's vertex
inputs: how far from the read rows an exact answer looks.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.ir.functions import get_scatter_fn
from repro.ir.module import Module
from repro.ir.ops import OpKind, OpNode
from repro.ir.tensorspec import Domain

__all__ = ["WHOLE", "ring_depths", "receptive_hops"]

#: The ring of "every row": deeper than any receptive field.
WHOLE = 1 << 30


def _whole(node: OpNode, specs) -> bool:
    """Must ``node`` run on every row, whatever its readers need?"""
    domain = specs[node.outputs[0]].domain
    if node.kind is OpKind.PARAM_GRAD or domain not in (Domain.VERTEX, Domain.EDGE):
        return True
    if node.kind is OpKind.GATHER:
        return node.orientation != "in"
    if node.kind is OpKind.SCATTER:
        return get_scatter_fn(node.fn).vertex_direct_read
    return False


def _needs(node: OpNode, ring: int, specs) -> Dict[str, int]:
    """The ring of each operand a node running on ``ring`` reads."""
    needs = dict.fromkeys(node.all_inputs(), ring)
    if node.kind is OpKind.SCATTER and get_scatter_fn(node.fn).reads_u:
        u = node.inputs[0]
        if specs[u].domain is Domain.VERTEX:
            needs[u] = min(ring + 1, WHOLE)
    return needs


def ring_depths(module: Module, keep: Iterable[str] = ()) -> Dict[str, int]:
    """Value name → the ring whose rows it must hold exactly.

    A produced value's ring is also the ring its node runs on (a node is
    named by its first output); a module input's is the largest any
    reader needs.  Vertex outputs are read at ring 0; any other output
    and the ``keep`` values are read whole; a value nothing reads gets
    ring 0.  Readers come after their producers in module order, so one
    backward pass settles every ring.
    """
    specs = module.specs
    need = dict.fromkeys(keep, WHOLE)
    need.update(
        (name, 0 if specs[name].domain is Domain.VERTEX else WHOLE)
        for name in module.outputs
    )
    ring: Dict[str, int] = {}
    for node in reversed(module.nodes):
        r = max(need.get(o, 0) for o in node.outputs)
        # A gather's argmax names edges of the graph it ran on: only
        # the whole field's ids mean anything to a reader.
        if _whole(node, specs) or any(o in need for o in node.outputs[1:]):
            r = WHOLE
        ring.update(dict.fromkeys(node.outputs, r))
        for name, n in _needs(node, r, specs).items():
            need[name] = max(need.get(name, 0), n)
    for name in list(module.inputs) + list(module.params):
        ring[name] = need.get(name, 0)
    return ring


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
