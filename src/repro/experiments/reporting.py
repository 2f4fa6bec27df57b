"""ASCII tables and CSV export for experiment results."""

from __future__ import annotations

import csv
import io
from typing import Any, Mapping, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    float_fmt: str = "{:.2f}",
) -> str:
    """Render a fixed-width ASCII table (right-aligned numerics)."""
    def fmt(v: Any) -> str:
        if isinstance(v, bool):
            return str(v)
        if isinstance(v, float):
            return float_fmt.format(v)
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(row: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))

    sep = "  ".join("-" * w for w in widths)
    out = [line(headers), sep]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def series_table(
    x_label: str,
    x_values: Sequence[Any],
    series: Mapping[str, Sequence[float]],
    float_fmt: str = "{:.2f}",
) -> str:
    """Render sweep series as a table: one row per x, one column per policy."""
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x, *(series[name][i] for name in series)])
    return render_table(headers, rows, float_fmt=float_fmt)


def rows_csv(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render table rows as CSV text; floats as ``repr``, so they round-trip."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def to_csv(
    x_label: str,
    x_values: Sequence[Any],
    series: Mapping[str, Sequence[float]],
) -> str:
    """Render sweep series as CSV text."""
    return rows_csv([x_label, *series],
                    [[x, *(float(series[name][i]) for name in series)]
                     for i, x in enumerate(x_values)])


def metrics_table(results: Mapping[str, Any], keys: Sequence[str]) -> str:
    """Table of selected metrics, one row per policy.

    ``results`` maps policy name to :class:`ScenarioResult`.
    """
    headers = ["policy", *keys]
    rows = []
    for name, res in results.items():
        d = res.metrics.as_dict()
        rows.append([name, *(d[k] for k in keys)])
    return render_table(headers, rows)
