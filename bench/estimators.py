"""Noise-robust estimators for the benchmark's timing metrics.

On a small shared VM interference only ever *slows* a pass, so every
timing metric is read from the fast side of its samples:

* a per-pass quantity (loop wall time, set-up time) reports its **fast
  quartile** — the k-th fastest of n with ``k = max(1, round(n / 4))``
  (3rd fastest of 12), not the single best, which one lucky pass owns;
* a per-request quantity reports percentiles over **per-request
  floors** — request *i* does identical work in every pass, so its
  latency is the minimum over passes.  That removes preemption spikes
  and keeps the algorithmic tail (a slow-path projection is slow in
  every pass).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Tail candidates, highest first; the reported tail is the first one
#: with at least ``beyond`` samples past it.
TAIL_CANDIDATES = (99.0, 90.0, 50.0)


def fast_rank(n: int) -> int:
    """1-based rank of the fast-quartile sample among ``n``."""
    if n < 1:
        raise ValueError("need at least one sample")
    return max(1, round(n / 4))


def fast_quartile(durations: Sequence[float]) -> float:
    """The ``fast_rank``-th smallest duration (lower = faster)."""
    return sorted(durations)[fast_rank(len(durations)) - 1]


def floors(per_pass: Sequence[Sequence[float]]) -> list[float]:
    """Element-wise minimum over passes of per-request latencies."""
    if not per_pass:
        raise ValueError("need at least one pass")
    width = len(per_pass[0])
    if any(len(row) != width for row in per_pass):
        raise ValueError("passes served different request counts")
    return [min(column) for column in zip(*per_pass)]


def _rank(q: float, n: int) -> int:
    """Nearest-rank index (1-based); ``q * n`` first, so whole ranks stay exact."""
    return max(1, math.ceil(q * n / 100.0))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of sorted data."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def tail_percentile(n: int, beyond: int = 10) -> float:
    """Highest candidate percentile with >= ``beyond`` of ``n`` samples past it."""
    for q in TAIL_CANDIDATES:
        if n - _rank(q, n) >= beyond:
            return q
    return TAIL_CANDIDATES[-1]


def spread_summary(values: Sequence[float]) -> str:
    """``median [q1..q3]`` over passes — printed for information only."""
    if len(values) < 2:
        return f"{values[0]:.6g}" if values else "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}..{q3:.6g}]"
