"""Graphviz DOT dumps of IR modules."""

from __future__ import annotations

from typing import Optional

from repro.ir.module import Module
from repro.ir.ops import OpKind

__all__ = ["to_dot"]


_KIND_COLORS = {
    OpKind.SCATTER: "lightblue",
    OpKind.GATHER: "lightsalmon",
    OpKind.APPLY: "lightgrey",
    OpKind.PARAM_GRAD: "plum",
    OpKind.VIEW: "white",
}


def to_dot(module: Module, *, name: Optional[str] = None) -> str:
    """Graphviz DOT rendering (one node per op, edges are dataflow)."""
    out = [f'digraph "{name or module.name}" {{', "  rankdir=TB;"]
    for n in module.inputs + module.params:
        out.append(f'  "{n}" [shape=ellipse, style=dashed];')
    for node in module.nodes:
        color = _KIND_COLORS.get(node.kind, "white")
        label = f"{node.kind.value}:{node.fn}"
        if node.is_expensive():
            label += " ($$)"
        out.append(
            f'  "{node.name}" [shape=box, style=filled, '
            f'fillcolor={color}, label="{label}\\n{node.name}"];'
        )
        for i in node.all_inputs():
            out.append(f'  "{i}" -> "{node.name}";')
        for extra in node.outputs[1:]:
            out.append(f'  "{extra}" [shape=note];')
            out.append(f'  "{node.name}" -> "{extra}";')
    for o in module.outputs:
        out.append(f'  "out:{o}" [shape=doublecircle];')
        out.append(f'  "{o}" -> "out:{o}";')
    out.append("}")
    return "\n".join(out)
