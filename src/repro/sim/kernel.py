"""The discrete-event simulation kernel.

:class:`Simulator` owns the simulated clock and a binary-heap event
queue.  Components schedule :class:`~repro.sim.events.Event` callbacks
with :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` and the
kernel advances time by repeatedly popping the earliest event.

Design notes
------------
* **Determinism** — events are ordered ``(time, priority, seq)``; the
  sequence number is assigned at scheduling time, so there is exactly
  one legal execution order for a given schedule history.
* **Heap entries are tuples** — the queue holds ``(time, priority,
  seq, event)``, so ``heapq`` orders it with the C tuple comparator;
  ``seq`` is unique, hence the :class:`Event` in the last slot is never
  compared (events define no ordering of their own).
* **No time-stepping** — the clock jumps from event to event, which is
  what keeps the 3000-job × 128-node experiments of the paper well
  under a second each.
* **Re-entrancy** — callbacks may freely schedule and cancel further
  events, including events at the current instant (they will run in
  this same pass, after the current callback returns).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, Optional

from repro.sim.events import Event, EventPriority


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, bad run bounds)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock (seconds).
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after
        this many events, catching accidental infinite event loops.
    on_event:
        Optional observer called as ``on_event(event)`` as each event
        fires, before its callback runs and the next event pops.
        Observers must be passive — they see the event but must not
        schedule, cancel or mutate simulation state — so instrumented
        and uninstrumented runs execute identical event sequences.
        Long-running callers use this to report progress; the obs layer
        uses it to count events and sample heap depth.  Also assignable
        after construction.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda ev: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(
        self,
        start_time: float = 0.0,
        max_events: int = 50_000_000,
        on_event: Optional[Callable[[Event], None]] = None,
    ) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._events_fired = 0
        self._tombstones_dropped = 0
        self.max_events = int(max_events)
        self.on_event = on_event

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of (non-cancelled) events executed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._heap)

    @property
    def tombstones_dropped(self) -> int:
        """Cancelled events discarded lazily instead of re-heapified.

        ``cancel()`` is O(1): it only flags the event, and the heap drops
        the tombstone when it surfaces.
        This counter sizes how much churn that laziness absorbed —
        LibraRisk's per-completion reschedules cancel one timer per
        resident task, so it grows with cluster occupancy.
        """
        return self._tombstones_dropped

    # -- scheduling -------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Optional[Callable[[Event], None]],
        priority: int = EventPriority.NORMAL,
        name: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        return self.schedule_at(self._now + float(delay), callback, priority, name, payload)

    def schedule_at(
        self,
        time: float,
        callback: Optional[Callable[[Event], None]],
        priority: int = EventPriority.NORMAL,
        name: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``: the one
        validated heap push behind both ``schedule*`` calls.

        Raises
        ------
        SimulationError
            If ``time`` lies in the past or is not finite.
        """
        event = Event(time, priority, callback, name=name, payload=payload)
        time = event.time
        # `not (now <= time < inf)` is also true for NaN, which a plain
        # `time < now` lets through to corrupt the heap order.
        if not self._now <= time < math.inf:
            if not math.isfinite(time):
                raise SimulationError(f"event time must be finite, got {time!r}")
            raise SimulationError(
                f"cannot schedule event at t={time:.6g}: clock is already at t={self._now:.6g}"
            )
        seq = event.seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, event.priority, seq, event))
        return event

    # -- execution --------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given, the clock is left at exactly ``until``
        even if the last event fired earlier (so post-run metrics read a
        consistent horizon).
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until:.6g}) is in the past (now={self._now:.6g})"
            )
        pop = heapq.heappop
        heap = self._heap  # never rebound: callbacks push onto this list
        while True:
            while heap and heap[0][3]._cancelled:
                pop(heap)
                self._tombstones_dropped += 1
            if not heap:
                break
            time, _, _, event = heap[0]
            if until is not None and time > until:
                break
            if self._events_fired >= self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}: possible event loop"
                )
            pop(heap)
            self._now = time
            self._events_fired += 1
            if self.on_event is not None:
                self.on_event(event)
            if event.callback is not None:
                event.callback(event)
        if until is not None and self._now < until:
            self._now = float(until)

    # -- checkpoint support ------------------------------------------------
    def clock_state(self) -> dict:
        """The kernel's restorable scalar state (see :meth:`restore_clock`)."""
        return {"now": self._now, "seq": self._seq, "events_fired": self._events_fired}

    def restore_clock(self, now: float, seq: int, events_fired: int) -> None:
        """Reset the clock and counters from a checkpoint.

        Only legal on a simulator whose event queue is still empty: the
        restorer re-creates pending events *after* this call so their
        sequence numbers continue from the snapshot's ``seq``.
        """
        if self._heap:
            raise SimulationError(
                f"cannot restore clock state with {len(self._heap)} events pending"
            )
        now = float(now)
        if not math.isfinite(now):
            raise SimulationError(f"restored clock must be finite, got {now!r}")
        if seq < 0 or events_fired < 0:
            raise SimulationError("restored seq/events_fired must be >= 0")
        self._now = now
        self._seq = int(seq)
        self._events_fired = int(events_fired)

    # -- inspection -----------------------------------------------------
    def iter_pending(self) -> Iterable[Event]:
        """Yield pending live events in an unspecified order (inspection only)."""
        return (entry[3] for entry in self._heap if not entry[3]._cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.6g} pending={len(self._heap)} "
            f"fired={self._events_fired}>"
        )
