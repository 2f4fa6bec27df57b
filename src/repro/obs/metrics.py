"""A deterministic in-process metrics registry.

Components register **counters**, **gauges** and **histograms** into a
:class:`MetricsRegistry` and update them as the simulation runs.  The
registry is designed around one non-negotiable property: *for the same
seed and scenario, the exported state is byte-identical between runs*.
That rules out wall-clock timestamps, hash-ordered iteration and
adaptive histogram buckets — metrics are kept in insertion order,
labels are sorted, and histogram bucket bounds are fixed at creation
time.

Quickstart
----------
>>> reg = MetricsRegistry()
>>> reg.counter("jobs_total", "Jobs seen", transition="completed").inc()
>>> reg.counter("jobs_total", "Jobs seen", transition="completed").inc()
>>> reg.counter("jobs_total", "Jobs seen", transition="completed").value
2
>>> h = reg.histogram("slowdown", "Job slowdown", buckets=(1.0, 10.0))
>>> h.observe(3.5)
>>> h.count, h.sum
(1, 3.5)
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional, Sequence, Union

Number = Union[int, float]

#: Default histogram bucket bounds (upper-inclusive, Prometheus style).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Raised for registry misuse (kind clashes, bad bucket bounds)."""


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base class for one labelled time series.

    Value updates and snapshots are guarded by a per-metric reentrant
    lock: the registry is shared across the service's HTTP handler
    threads, where unsynchronized ``+=`` loses increments and a
    ``/metrics`` render can observe a half-applied histogram update.
    Single-threaded simulation runs pay only an uncontended acquire.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: dict[str, str]) -> None:
        self.name = name
        self.help = help
        self.labels = dict(sorted((str(k), str(v)) for k, v in labels.items()))
        self._lock = threading.RLock()

    def as_dict(self) -> dict:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str, labels: dict[str, str]) -> None:
        super().__init__(name, help, labels)
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self.value += amount

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "name": self.name, "kind": self.kind, "labels": self.labels,
                "value": self.value,
            }


class Gauge(Metric):
    """A value that can go up and down (queue depth, running jobs)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labels: dict[str, str]) -> None:
        super().__init__(name, help, labels)
        self.value: Number = 0

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self.value -= amount

    def max(self, value: Number) -> None:
        """Keep the running maximum of observed values."""
        with self._lock:
            if value > self.value:
                self.value = value

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "name": self.name, "kind": self.kind, "labels": self.labels,
                "value": self.value,
            }


class Histogram(Metric):
    """Distribution with **fixed** bucket bounds (upper-inclusive).

    Bounds are frozen at creation so that exports are deterministic;
    an implicit ``+Inf`` bucket catches everything above the last bound.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: dict[str, str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"histogram {name} needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {name} bounds must be strictly increasing")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        value = float(value)
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at +Inf."""
        with self._lock:
            out: list[tuple[float, int]] = []
            running = 0
            for bound, count in zip(self.bounds, self._counts):
                running += count
                out.append((bound, running))
            out.append((float("inf"), self.count))
            return out

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "name": self.name, "kind": self.kind, "labels": self.labels,
                "sum": self.sum, "count": self.count,
                "buckets": [
                    [("+Inf" if b == float("inf") else b), c]
                    for b, c in self.bucket_counts()
                ],
            }


class MetricsRegistry:
    """Get-or-create store of metrics, iterated in registration order.

    The same ``(name, labels)`` pair always returns the same metric
    object; asking for it with a different *kind* raises
    :class:`MetricError` so name collisions are caught early.

    Structural operations (get-or-create, lookup, iteration, collect)
    are serialized by a registry-level lock: service handler threads
    lazily create labelled metrics while ``GET /metrics`` iterates, and
    an unguarded dict would race (lost registrations, ``dict changed
    size during iteration``).  Iteration yields a point-in-time
    snapshot for the same reason.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Metric] = {}
        self._lock = threading.Lock()

    # -- get-or-create ------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise MetricError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if tuple(float(b) for b in buckets) != existing.bounds:
                    raise MetricError(
                        f"histogram {name!r} re-registered with different buckets"
                    )
                return existing
            metric = Histogram(name, help, labels, buckets=buckets)
            self._metrics[key] = metric
            return metric

    def _get_or_create(self, cls, name: str, help: str, labels: dict[str, str]):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, labels)
            self._metrics[key] = metric
            return metric

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        with self._lock:
            return iter(list(self._metrics.values()))

    def get(self, name: str, **labels: str) -> Optional[Metric]:
        """Look up an existing metric without creating it."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def collect(self) -> list[dict]:
        """Every metric as a plain dict, **sorted** by (name, labels).

        Sorting (rather than registration order) makes the export
        independent of code paths that merely changed registration
        order, which keeps the byte-identity guarantee robust.
        """
        with self._lock:
            snapshot = sorted(self._metrics.items(), key=lambda kv: kv[0])
        return [m.as_dict() for _, m in snapshot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry metrics={len(self._metrics)}>"
