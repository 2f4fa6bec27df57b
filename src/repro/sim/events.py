"""Event objects for the discrete-event kernel.

An :class:`Event` is a scheduled callback.  Events are ordered by
``(time, priority, seq)`` where ``seq`` is a monotonically increasing
sequence number assigned at scheduling time, so events scheduled for
the same instant with the same priority fire in FIFO order.  That
stable ordering is what makes whole simulations reproducible.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional


class EventPriority(enum.IntEnum):
    """Relative ordering of events that fire at the same simulated time.

    Lower numeric value fires first.  The defaults are chosen so that
    job completions are processed before arrivals at the same instant:
    a node must release its processors/shares before the admission
    control evaluates a new job, otherwise capacity freed "now" would
    be invisible to a job arriving "now".
    """

    #: Internal kernel bookkeeping (timers that must precede all else).
    URGENT = 0
    #: Job/task completions, releases of capacity.
    COMPLETION = 10
    #: Job arrivals and admission decisions.
    ARRIVAL = 20
    #: Everything else.
    NORMAL = 30
    #: Metric snapshots, monitors — observe state after it settled.
    MONITOR = 40


class Event:
    """A single scheduled occurrence inside a :class:`~repro.sim.kernel.Simulator`.

    Parameters
    ----------
    time:
        Absolute simulated time at which the event fires.
    priority:
        Tie-break ordering for simultaneous events (lower fires first).
    callback:
        Callable invoked as ``callback(event)`` when the event fires.
    name:
        Human-readable label used by the trace recorder.
    payload:
        Arbitrary data carried by the event; never interpreted by the
        kernel.
    """

    __slots__ = ("time", "priority", "seq", "callback", "name", "payload", "_cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        callback: Optional[Callable[["Event"], None]],
        name: str = "",
        payload: Any = None,
    ) -> None:
        self.time = float(time)
        self.priority = int(priority)
        self.seq = -1  # assigned by the simulator at scheduling time
        self.callback = callback
        self.name = name
        self.payload = payload
        self._cancelled = False

    # -- cancellation -----------------------------------------------------
    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped.

        Cancellation is O(1); the event stays in the heap until its
        scheduled time, at which point it is silently discarded.
        """
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self._cancelled else ""
        return f"<Event {self.name or 'anon'} t={self.time:.6g} prio={self.priority}{state}>"
