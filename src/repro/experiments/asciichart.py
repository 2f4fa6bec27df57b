"""ASCII line charts for figure panels.

`repro figures` prints series tables; for a quick visual check of
*shape* (who wins, where curves cross) an ASCII plot in the
terminal beats scanning numbers.  Pure string output, no plotting
dependencies, deterministic layout — so charts are testable.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence

#: Marker characters assigned to series in insertion order.
MARKERS = "*o+x#@%&"


def _scale(value: float, lo: float, hi: float, steps: int) -> int:
    if hi <= lo:
        return 0
    frac = (value - lo) / (hi - lo)
    return min(steps, max(0, round(frac * steps)))


def ascii_chart(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    y_label: str = "",
    x_label: str = "",
    y_min: Optional[float] = None,
    y_max: Optional[float] = None,
) -> str:
    """Render series as an ASCII scatter-line chart.

    Columns are the sweep points spread across ``width``; each series
    gets a marker from :data:`MARKERS`; collisions show the later
    series' marker.  Returns a multi-line string with a legend.
    """
    if not x_values:
        raise ValueError("need at least one x value")
    if not series:
        raise ValueError("need at least one series")
    for name, vals in series.items():
        if len(vals) != len(x_values):
            raise ValueError(f"series {name!r} length {len(vals)} != {len(x_values)}")
    if len(series) > len(MARKERS):
        raise ValueError(f"at most {len(MARKERS)} series supported")

    finite = [v for vals in series.values() for v in vals if math.isfinite(v)]
    if not finite:
        raise ValueError("series contain no finite values")
    lo = y_min if y_min is not None else min(finite)
    hi = y_max if y_max is not None else max(finite)
    if hi == lo:
        hi = lo + 1.0

    grid = [[" "] * width for _ in range(height + 1)]
    n = len(x_values)
    for (name, vals), marker in zip(series.items(), MARKERS):
        for i, v in enumerate(vals):
            if not math.isfinite(v):
                continue
            col = _scale(i, 0, max(n - 1, 1), width - 1)
            row = height - _scale(v, lo, hi, height)
            grid[row][col] = marker

    gutter = 9
    lines = []
    if y_label:
        lines.append(f"{y_label}")
    for r, row in enumerate(grid):
        if r == 0:
            tick = f"{hi:8.4g} "
        elif r == height:
            tick = f"{lo:8.4g} "
        else:
            tick = " " * gutter
        lines.append(tick + "|" + "".join(row))
    axis = " " * gutter + "+" + "-" * width
    lines.append(axis)
    x_lo, x_hi = f"{x_values[0]:g}", f"{x_values[-1]:g}"
    pad = max(1, width - len(x_lo) - len(x_hi))
    lines.append(" " * (gutter + 1) + x_lo + " " * pad + x_hi)
    if x_label:
        label_pad = max(0, gutter + 1 + (width - len(x_label)) // 2)
        lines.append(" " * label_pad + x_label)
    legend = "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), MARKERS)
    )
    lines.append(" " * (gutter + 1) + legend)
    return "\n".join(lines)


def panel_chart(panel: Mapping[str, Any], width: int = 64, height: int = 14) -> str:
    """Chart one panel of a paper record (:mod:`repro.experiments.record`)."""
    head = f"({panel['label']}) {panel['title']}"
    body = ascii_chart(
        list(panel["x_values"]),
        panel["series"],
        width=width,
        height=height,
        x_label=panel["x_label"],
    )
    return head + "\n" + body
