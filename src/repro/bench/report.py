"""Plain-text table rendering and persistence for bench output."""

from __future__ import annotations

import math
import os
from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table", "geomean", "save_table", "RESULTS_DIR"]

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__)))),
    "benchmarks",
    "results",
)


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.3f}"
    return str(v)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Fixed-width table with a rule under the header."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def save_table(name: str, text: str) -> str:
    """Persist a rendered table under ``benchmarks/results/``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text.rstrip() + "\n")
    return path
