"""Plain-text table formatting and aggregation helpers for the benches."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's averaging rule for speedups, Sec 3.2)."""
    vals = [v for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table suitable for CLI stdout (tee'd into reports)."""
    str_rows: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows
    ]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in str_rows)) if str_rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def group_geomeans(
    per_workload: Dict[str, float],
    groups: Dict[str, List[str]],
) -> Dict[str, float]:
    """Geometric means over the paper's reporting groups (RATE/MIX/GAP/...)."""
    out = {}
    for group_name, members in groups.items():
        vals = [per_workload[w] for w in members if w in per_workload]
        out[group_name] = geomean(vals) if vals else float("nan")
    return out
