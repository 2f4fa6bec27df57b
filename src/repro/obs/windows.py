"""Constant-memory windowed telemetry over *simulated* time.

The cumulative counters of :mod:`repro.obs.metrics` answer "what
happened since the run started"; a long-running service also needs
"what is happening *now*".  :class:`WindowAggregator` answers that
second question per policy — windowed submissions, rejections, loss
ratio and rejection-reason series — in memory bounded regardless of
run length.

Layout
------
The window is ``buckets`` equal slices of simulated time.  Each policy
keeps a deque of live slices, oldest first, each a list ``[slice index,
submitted, rejected, {reason: n} or None]`` (int counts; the dict comes
with the first rejection); the last slice's index is the policy's
*cursor*.  A note past the cursor appends a fresh slice and evicts
every slice that fell ``buckets`` slices behind; a note at or behind
the cursor lands in the cursor's slice.  Reads move the cursor the same
way, so a policy that stopped receiving decisions decays to zero as the
window slides past them.  Distinct reason names are capped at
:data:`MAX_REASONS` per policy for the life of the aggregator; later
reasons fold into :data:`OVERFLOW_REASON`.

Determinism
-----------
Windows advance on the **simulated** clock (the ``t`` of each noted
decision), never the wall clock, so the same workload under a
``VirtualClock`` yields byte-identical :meth:`WindowAggregator.snapshot`
output across runs, replays and WAL recoveries.

Concurrency
-----------
The aggregator is shared between service handler threads and the
``GET /metrics`` renderer.  One lock guards all of it: a note takes it
once and a snapshot takes it once, so a snapshot is atomic — its loss
ratio is always its own ``rejected / submitted`` (lint rule CONC001,
docs/STATIC_ANALYSIS.md).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Iterable

#: Default window length in simulated seconds (one hour of trace time).
DEFAULT_WINDOW = 3600.0

#: Default number of time slices per window.
DEFAULT_BUCKETS = 60

#: Cap on distinct rejection reasons tracked per policy; the excess is
#: folded into :data:`OVERFLOW_REASON` so reason cardinality (a
#: workload-controlled input) cannot grow state without bound.
MAX_REASONS = 32

#: Bucket every reason beyond :data:`MAX_REASONS` lands in.
OVERFLOW_REASON = "<other>"


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
        self._slice = self.window / self.buckets
        #: policy -> live slices ``[index, submitted, rejected, {reason:
        #: n} or None]``, oldest first; the last one is the cursor's.
        self._slices: dict[str, deque[list[Any]]] = {}
        #: policy -> every reason name it has ever counted (the cap).
        self._reasons: dict[str, set[str]] = {}
        self._lock = threading.Lock()

    def note_decision(self, t: float, policy: str, outcome: str,
                      reason: str = "") -> None:
        """Record one admission decision at simulated time ``t``."""
        index = math.floor(t / self._slice)
        with self._lock:
            slices = self._slices.get(policy)
            if slices is None:  # the policy's first note
                slices = self._slices[policy] = deque([[index, 0, 0, None]])
                self._reasons[policy] = set()
            cursor = slices[-1]
            if index > cursor[0]:  # past the cursor: a fresh slice, and evict
                cursor = [index, 0, 0, None]
                slices.append(cursor)
                horizon = index - self.buckets
                while slices[0][0] <= horizon:
                    slices.popleft()
            cursor[1] += 1
            if outcome == "rejected":
                cursor[2] += 1
                reason = reason or "<unspecified>"
                seen = self._reasons[policy]
                if reason not in seen:
                    if len(seen) >= MAX_REASONS:
                        reason = OVERFLOW_REASON
                    seen.add(reason)
                by_reason = cursor[3]
                if by_reason is None:
                    cursor[3] = {reason: 1}
                else:
                    by_reason[reason] = by_reason.get(reason, 0) + 1

    def replay(self, decisions: Iterable[Any]) -> None:
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

    def snapshot(self, t: float) -> dict[str, Any]:
        """Deterministic JSON-able view of every policy window at ``t``."""
        index = math.floor(t / self._slice)
        policies: dict[str, Any] = {}
        with self._lock:
            for name, slices in sorted(self._slices.items()):
                if index > slices[-1][0]:  # a read moves the cursor as a note does
                    slices.append([index, 0, 0, None])
                    horizon = index - self.buckets
                    while slices[0][0] <= horizon:
                        slices.popleft()
                submitted = rejected = 0
                reasons: dict[str, int] = {}
                for _, sub, rej, by_reason in slices:
                    submitted += sub
                    rejected += rej
                    for reason, n in (by_reason or {}).items():
                        reasons[reason] = reasons.get(reason, 0) + n
                policies[name] = {
                    "window_s": self.window,
                    "submitted": float(submitted),
                    "rejected": float(rejected),
                    "loss_ratio": rejected / submitted if submitted > 0 else 0.0,
                    "reject_reasons": {r: float(n) for r, n in sorted(reasons.items())},
                }
        return {"t": float(t), "window_s": self.window, "policies": policies}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WindowAggregator window={self.window:g}s "
            f"policies={len(self._slices)}>"
        )


__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_WINDOW",
    "MAX_REASONS",
    "OVERFLOW_REASON",
    "WindowAggregator",
]
