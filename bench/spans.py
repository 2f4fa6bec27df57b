"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``[name, start, end, parent, request_id]``: ``parent`` is the
index of the span that caused it (-1 for a root) and spans of one
request share ``request_id``.  Spans live in a list until the run ends
and are then written out once; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Optional

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Append-only span store."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []

    def add(self, name: str, start: float, end: float,
            parent: int = -1, request_id: int = -1) -> int:
        """Record a finished span; returns its index (a parent handle)."""
        self.spans.append([name, start, end, parent, request_id])
        return len(self.spans) - 1

    def timed(self, name: str, parent: int = -1, request_id: int = -1) -> "_Timed":
        """Context manager for cold paths: ``with tracer.timed("x") as s:``."""
        return _Timed(self, name, parent, request_id)


class _Timed:
    def __init__(self, tracer: Tracer, name: str, parent: int, request_id: int) -> None:
        self._tracer = tracer
        self.index = tracer.add(name, 0.0, 0.0, parent, request_id)

    def __enter__(self) -> "_Timed":
        self._tracer.spans[self.index][START] = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer.spans[self.index][END] = perf_counter()

    @property
    def seconds(self) -> float:
        span = self._tracer.spans[self.index]
        return span[END] - span[START]


def self_times(spans: list[list[Any]]) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def totals_by_name(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """``{name: {count, total_s, self_s}}`` over all spans."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, selfs):
        row = table[span[NAME]]
        row["count"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return dict(table)


def write_trace(path: str, spans: list[list[Any]], meta: Optional[dict[str, Any]] = None) -> None:
    """One JSON document: meta, per-name totals, then the raw spans."""
    origin = min((s[START] for s in spans), default=0.0)
    doc = {
        "meta": meta or {},
        "fields": ["name", "start_s", "end_s", "parent", "request_id"],
        "by_name": totals_by_name(spans),
        "spans": [
            [s[NAME], round(s[START] - origin, 9), round(s[END] - origin, 9),
             s[PARENT], s[REQUEST]]
            for s in spans
        ],
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, separators=(",", ":"))
        fp.write("\n")
