"""Constant-memory windowed telemetry over *simulated* time.

The cumulative counters of :mod:`repro.obs.metrics` answer "what
happened since the run started"; a long-running service also needs
"what is happening *now*".  This module provides the sliding-window
primitives for that second question, all bounded in memory regardless
of run length:

* :class:`WindowedCounter` — event rate over the trailing window,
  kept in a fixed ring of time buckets (O(buckets) memory);
* :class:`RingHistogram` — quantiles (p50/p90/p99/p99.9) over the last
  ``capacity`` observations (O(capacity) memory, oldest evicted first);
* :class:`PolicyWindow` / :class:`WindowAggregator` — per-policy
  windowed admission counts, loss ratio and rejection-reason series,
  with the distinct-reason set capped so a pathological workload cannot
  grow state without bound.

Determinism
-----------
Windows advance on the **simulated** clock (the ``t`` of each noted
decision), never the wall clock, so the same workload under a
``VirtualClock`` yields byte-identical :meth:`WindowAggregator.snapshot`
output across runs, replays and WAL recoveries.  Quantiles come from
the same linear-interpolated percentile the load generator reports, so
``repro top`` and loadgen summaries agree on definitions.

Concurrency
-----------
Instances are shared between service handler threads and the
``GET /metrics`` renderer; every ring-buffer mutation and snapshot
therefore happens under the instance lock (enforced by lint rule
CONC003 — see docs/STATIC_ANALYSIS.md).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Optional, Sequence

#: Default window length in simulated seconds (one hour of trace time).
DEFAULT_WINDOW = 3600.0

#: Default bucket count for windowed rate counters.
DEFAULT_BUCKETS = 60

#: Default retained-sample capacity for ring histograms.
DEFAULT_CAPACITY = 1024

#: Cap on distinct rejection reasons tracked per policy; the excess is
#: folded into :data:`OVERFLOW_REASON` so reason cardinality (a
#: workload-controlled input) cannot grow state without bound.
MAX_REASONS = 32

#: Bucket every reason beyond :data:`MAX_REASONS` lands in.
OVERFLOW_REASON = "<other>"

#: Quantiles every ring histogram reports, in readout order.
QUANTILES = ((50.0, "p50"), (90.0, "p90"), (99.0, "p99"), (99.9, "p999"))


def window_percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of sorted data."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(sorted_values) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


class WindowedCounter:
    """Event count/rate over a trailing window of simulated time.

    The window is a fixed ring of ``buckets`` equal time slices; noting
    an event at time ``t`` zeroes any slices the clock skipped and
    increments the current one.  Reads (:meth:`total`, :meth:`rate`)
    advance the ring the same way first, so a counter that stopped
    receiving events decays to zero as the window slides past them.
    Memory is O(buckets) forever.
    """

    def __init__(self, window: float = DEFAULT_WINDOW,
                 buckets: int = DEFAULT_BUCKETS) -> None:
        if window <= 0 or not math.isfinite(window):
            raise ValueError(f"window must be a positive finite number, got {window}")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.window = float(window)
        self.buckets = int(buckets)
        self._slice = self.window / self.buckets
        self._counts = [0.0] * self.buckets
        #: Index of the time slice the cursor currently sits in
        #: (floor(t / slice)); ``None`` until the first event arrives.
        self._cursor: Optional[int] = None
        self._lock = threading.Lock()

    def _advance(self, t: float) -> None:  # repro-lint: locked  private helper, every caller holds self._lock
        """Zero the slices between the cursor and ``t`` (lock held)."""
        index = math.floor(t / self._slice)
        cursor = self._cursor
        if cursor is None:
            self._cursor = index
            return
        steps = index - cursor
        if steps <= 0:
            return  # same slice, or a stale read behind the cursor
        buckets = self.buckets
        if steps >= buckets:
            self._counts[:] = [0.0] * buckets
        else:
            # Ring positions cursor+1 .. index: one run, or two when it wraps.
            lo = (cursor + 1) % buckets
            hi = lo + steps
            if hi <= buckets:
                self._counts[lo:hi] = [0.0] * steps
            else:
                self._counts[lo:] = [0.0] * (buckets - lo)
                self._counts[: hi - buckets] = [0.0] * (hi - buckets)
        self._cursor = index

    def note(self, t: float, amount: float = 1.0) -> None:
        """Record ``amount`` events at simulated time ``t``."""
        with self._lock:
            self._advance(t)
            self._counts[self._cursor % self.buckets] += amount

    def total(self, t: float) -> float:
        """Events inside the window ending at simulated time ``t``."""
        with self._lock:
            self._advance(t)
            return sum(self._counts)

    def rate(self, t: float) -> float:
        """Events per simulated second over the window ending at ``t``."""
        return self.total(t) / self.window

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WindowedCounter window={self.window:g}s buckets={self.buckets}>"


class RingHistogram:
    """Quantile readout over the last ``capacity`` observations.

    A bounded deque keeps memory at O(capacity) regardless of how many
    values were ever observed; :attr:`evicted` reports how many fell out
    of the ring so a reader knows when the quantiles describe a
    truncated suffix rather than the whole run.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._values: deque[float] = deque(maxlen=self.capacity)
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Add one observation (oldest is evicted past capacity)."""
        with self._lock:
            self._values.append(float(value))
            self._total += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    @property
    def total_observed(self) -> int:
        """Observations ever made, including evicted ones."""
        with self._lock:
            return self._total

    @property
    def evicted(self) -> int:
        """Observations no longer retained in the ring."""
        with self._lock:
            return self._total - len(self._values)

    def quantiles(self) -> dict[str, float]:
        """``{"p50": ..., "p90": ..., "p99": ..., "p999": ...}`` of the ring.

        Empty histograms report 0.0 everywhere rather than raising, so
        a freshly-started service renders a dashboard instead of a
        stack trace.
        """
        with self._lock:
            ordered = sorted(self._values)
        if not ordered:
            return {key: 0.0 for _, key in QUANTILES}
        return {key: window_percentile(ordered, q) for q, key in QUANTILES}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RingHistogram retained={len(self)} capacity={self.capacity}>"


class PolicyWindow:
    """Windowed admission series for one policy.

    Tracks submissions, rejections and per-reason rejection counts over
    the trailing window, from which the windowed **loss ratio** (the
    loss-ratio-vs-load lens of the scheduling-comparison literature)
    reads directly.  Reason cardinality is capped at
    :data:`MAX_REASONS`; later reasons fold into
    :data:`OVERFLOW_REASON`.
    """

    def __init__(self, window: float = DEFAULT_WINDOW,
                 buckets: int = DEFAULT_BUCKETS) -> None:
        self.window = float(window)
        self.buckets = int(buckets)
        self.submitted = WindowedCounter(window, buckets)
        self.rejected = WindowedCounter(window, buckets)
        self._reasons: dict[str, WindowedCounter] = {}
        self._lock = threading.Lock()

    def _reason_counter(self, reason: str) -> WindowedCounter:
        with self._lock:
            counter = self._reasons.get(reason)
            if counter is None:
                if len(self._reasons) >= MAX_REASONS:
                    reason = OVERFLOW_REASON
                    counter = self._reasons.get(reason)
                if counter is None:
                    counter = WindowedCounter(self.window, self.buckets)
                    self._reasons[reason] = counter
            return counter

    def note_decision(self, t: float, outcome: str, reason: str = "") -> None:
        """Record one admission decision at simulated time ``t``."""
        self.submitted.note(t)
        if outcome == "rejected":
            self.rejected.note(t)
            self._reason_counter(reason or "<unspecified>").note(t)

    def loss_ratio(self, t: float) -> float:
        """Rejected / submitted over the window ending at ``t`` (0.0 if idle)."""
        submitted = self.submitted.total(t)
        if submitted <= 0:
            return 0.0
        return self.rejected.total(t) / submitted

    def snapshot(self, t: float) -> dict[str, Any]:
        """Deterministic JSON-able view of this policy's window at ``t``."""
        with self._lock:
            reason_names = sorted(self._reasons)
        reasons = {
            name: self._reasons[name].total(t)
            for name in reason_names
        }
        return {
            "window_s": self.window,
            "submitted": self.submitted.total(t),
            "rejected": self.rejected.total(t),
            "loss_ratio": self.loss_ratio(t),
            "reject_reasons": {k: v for k, v in reasons.items() if v > 0},
        }


class WindowAggregator:
    """The service's windowed-telemetry facade: one window per policy.

    The engine calls :meth:`note_decision` once per admission decision;
    :meth:`snapshot` renders everything as one deterministic dict for
    ``stats``/``/metrics``/``repro top``.  Memory is
    O(policies x reasons x buckets), all three factors bounded.
    """

    def __init__(self, window: float = DEFAULT_WINDOW,
                 buckets: int = DEFAULT_BUCKETS) -> None:
        if window <= 0 or not math.isfinite(window):
            raise ValueError(f"window must be a positive finite number, got {window}")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.window = float(window)
        self.buckets = int(buckets)
        self._policies: dict[str, PolicyWindow] = {}
        self._lock = threading.Lock()

    def policy_window(self, policy: str) -> PolicyWindow:
        """Get-or-create the window for ``policy``."""
        with self._lock:
            win = self._policies.get(policy)
            if win is None:
                win = PolicyWindow(self.window, self.buckets)
                self._policies[policy] = win
            return win

    def note_decision(self, t: float, policy: str, outcome: str,
                      reason: str = "") -> None:
        """Record one admission decision at simulated time ``t``."""
        self.policy_window(policy).note_decision(t, outcome, reason)

    def replay(self, decisions: Sequence[Any]) -> None:
        """Rebuild window state from an engine's decision log.

        Used after checkpoint restore: decisions carry ``(t, policy,
        outcome, reason)`` in submit order, which is exactly the note
        stream the live engine produced, so a restored window is
        byte-identical to the uncrashed one.
        """
        for decision in decisions:
            self.note_decision(
                decision.t, decision.policy, decision.outcome, decision.reason
            )

    def policies(self) -> list[str]:
        with self._lock:
            return sorted(self._policies)

    def snapshot(self, t: float) -> dict[str, Any]:
        """Deterministic JSON-able view of every policy window at ``t``."""
        return {
            "t": float(t),
            "window_s": self.window,
            "policies": {
                name: self.policy_window(name).snapshot(t)
                for name in self.policies()
            },
        }

    def memory_items(self) -> int:
        """Retained state cells (for the O(window) soak assertion)."""
        with self._lock:
            policies = list(self._policies.values())
        items = 0
        for win in policies:
            with win._lock:
                reasons = len(win._reasons)
            items += (2 + reasons) * win.buckets
        return items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WindowAggregator window={self.window:g}s "
            f"policies={len(self._policies)}>"
        )


__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "DEFAULT_WINDOW",
    "MAX_REASONS",
    "OVERFLOW_REASON",
    "PolicyWindow",
    "QUANTILES",
    "RingHistogram",
    "WindowAggregator",
    "WindowedCounter",
    "window_percentile",
]
