"""Deterministic failover parking for submits owned by a down shard.

When a shard worker dies, the supervisor respawns it and WAL recovery
rebuilds its engine — but that window used to be a hole of client
errors: every submit hashing to the dead shard was refused.  Parking
closes the hole *without* breaking determinism:

* submits owned by a down shard are **parked in arrival order** in a
  bounded per-shard FIFO and acked to the client (``type: "parked"``);
* when the shard recovers, the lot is **flushed in the same order**
  before any new submit is forwarded, so the shard's WAL records the
  exact request sequence an un-killed run would have recorded — which
  is what makes the post-drill WALs and merged metrics byte-identical;
* a full lot rejects with the typed ``parking_full`` error (plus a
  ``Retry-After`` hint) instead of growing without bound.

Parking an already-parked job id is idempotent (one slot, first-writer
wins), mirroring the engine's duplicate-submit idempotency.

The lot itself is a plain ordered container; thread exclusion is the
router's job (one lock per shard serialises park/flush decisions).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

__all__ = ["ParkedSubmit", "ParkingLot"]


class ParkedSubmit:
    """One parked raw submit body, keyed for idempotent re-parks."""

    __slots__ = ("key", "body")

    def __init__(self, key: Any, body: bytes) -> None:
        self.key = key
        self.body = body


class ParkingLot:
    """Bounded FIFO of raw submit bodies awaiting a shard's recovery."""

    def __init__(self, shard_id: int, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.shard_id = int(shard_id)
        self.capacity = int(capacity)
        #: insertion-ordered {key: ParkedSubmit}; anonymous submits get a
        #: unique sequence key so they can never collide.
        self._items: "OrderedDict[Any, ParkedSubmit]" = OrderedDict()
        self._anon_seq = 0
        #: Lifetime counters (for /metrics and the health endpoint).
        self.parked_total = 0
        self.flushed_total = 0
        self.rejected_total = 0

    def __len__(self) -> int:
        return len(self._items)

    def park(self, job_id: Optional[int], body: bytes) -> bool:
        """Append one submit; returns ``False`` when the lot is full.

        A re-park of a job id already waiting keeps the *first* body and
        its queue position (the duplicate would be answered with
        ``duplicate: true`` on replay anyway).
        """
        if job_id is not None and job_id in self._items:
            return True
        if len(self._items) >= self.capacity:
            self.rejected_total += 1
            return False
        if job_id is None:
            self._anon_seq += 1
            key: Any = ("anon", self._anon_seq)
        else:
            key = job_id
        self._items[key] = ParkedSubmit(key, body)
        self.parked_total += 1
        return True

    def take_all(self) -> list[ParkedSubmit]:
        """Remove and return every parked submit, oldest first."""
        items = list(self._items.values())
        self._items.clear()
        return items

    def requeue_front(self, items: list[ParkedSubmit]) -> None:
        """Put un-flushed submits back at the head, preserving order.

        Used when a flush fails partway: the remainder (including the
        submit that failed) must stay ahead of anything parked since.
        """
        for item in reversed(items):
            self._items[item.key] = item
            self._items.move_to_end(item.key, last=False)

    def note_flushed(self, count: int) -> None:
        self.flushed_total += count

    def snapshot(self) -> dict[str, Any]:
        """Health-endpoint view of the lot."""
        return {
            "parked": len(self._items),
            "capacity": self.capacity,
            "parked_total": self.parked_total,
            "flushed_total": self.flushed_total,
            "rejected_total": self.rejected_total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ParkingLot shard={self.shard_id} parked={len(self._items)}/"
            f"{self.capacity}>"
        )
