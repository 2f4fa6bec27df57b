"""HTTP client and open-loop load generator for the admission service.

:class:`ServiceClient` speaks :mod:`repro.service.protocol` to a running
``repro serve`` instance over pooled keep-alive connections
(:mod:`repro.service.transport`).  :class:`LoadGenerator` streams a job
list at a configurable speed-up — request *i* is scheduled
``(submit_i − submit_0) / speedup`` wall-clock seconds after the start —
and reports sustained requests/sec plus latency percentiles.

Pacing is open-loop: send times come from the trace alone, never from
response completion, so a slow server shows up as rising latency (and,
past its queue-depth limit, as shed ``overloaded`` responses) rather
than as a silently throttled client.  One detail bends pure open-loop
dispatch: with ``workers <= 1`` (the default) requests are *issued* in
submit-time order from a single sender, because a virtual-clock server
refuses arrivals behind its clock (``out_of_order``).  With more
workers that many senders dispatch concurrently; use that against
live (``--live``) servers, which clamp stale submit times instead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.cluster.job import Job
from repro.obs.log import get_logger
from repro.service import protocol
from repro.service.transport import Transport, TransportError

log = get_logger("service.loadgen")

#: Default latency histogram bucket bounds (seconds).  Mirrors the
#: server-side ``service_request_seconds`` buckets so client- and
#: server-observed latency distributions line up; override per run
#: with ``LoadGenerator(latency_buckets=...)`` / ``--latency-buckets``
#: when the tail needs finer resolution.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0,
)


def percentile(sorted_values: Sequence[float], q: float) -> float:
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


def job_request_payload(job: Job) -> dict[str, Any]:
    """The ``submit`` request body for one job (actual runtime included)."""
    payload: dict[str, Any] = {
        "id": job.job_id,
        "submit_time": job.submit_time,
        "runtime": job.runtime,
        "estimated_runtime": job.estimated_runtime,
        "numproc": job.numproc,
        "deadline": job.deadline,
        "urgency": job.urgency.value,
    }
    if job.user is not None:
        payload["user"] = job.user
    return payload


class ServiceClient:
    """Blocking JSON-RPC client for one admission service."""

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.transport = Transport(self.url, timeout=timeout)

    def rpc(self, request: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        """POST one protocol request; returns ``(http_status, response)``.

        Transport failures — connection refused/reset, timeouts,
        dropped connections — never raise; they come back as status
        ``0`` with a typed ``unavailable`` error, so callers (the
        open-loop load generator in particular) record them as
        failures and keep going instead of aborting the whole run.
        Nothing is resent here: retries belong to
        :class:`~repro.service.client.RetryingClient`.
        """
        try:
            status, raw = self.transport.request(
                "POST", "/v1/rpc", protocol.encode(request)
            )
        except TransportError as exc:
            return 0, protocol.error_response(
                protocol.ErrorCode.UNAVAILABLE, str(exc)
            )
        payload = protocol.decode_response(status, raw)
        if payload is None:
            return 0, protocol.error_response(
                protocol.ErrorCode.UNAVAILABLE, "malformed response body"
            )
        return status, payload

    def submit(self, job: Job) -> tuple[int, dict[str, Any]]:
        return self.rpc({
            "v": protocol.PROTOCOL_VERSION, "type": "submit",
            "job": job_request_payload(job),
        })

    def submit_batch(self, jobs: Sequence[Job]) -> tuple[int, dict[str, Any]]:
        """Submit several jobs in one batch frame (one round trip)."""
        return self.rpc({
            "v": protocol.PROTOCOL_VERSION, "type": "batch",
            "jobs": [job_request_payload(job) for job in jobs],
        })

    def query(self, job_id: int) -> tuple[int, dict[str, Any]]:
        return self.rpc(
            {"v": protocol.PROTOCOL_VERSION, "type": "query", "job": job_id}
        )

    def stats(self) -> tuple[int, dict[str, Any]]:
        return self.rpc({"v": protocol.PROTOCOL_VERSION, "type": "stats"})

    def trace(self, job_id: int) -> tuple[int, dict[str, Any]]:
        """Fetch the reconstructed lifecycle span tree of one job."""
        return self.rpc(
            {"v": protocol.PROTOCOL_VERSION, "type": "trace", "job": job_id}
        )

    def drain(self) -> tuple[int, dict[str, Any]]:
        return self.rpc({"v": protocol.PROTOCOL_VERSION, "type": "drain"})

    def checkpoint(self, path: Optional[str] = None) -> tuple[int, dict[str, Any]]:
        request: dict[str, Any] = {"v": protocol.PROTOCOL_VERSION, "type": "checkpoint"}
        if path is not None:
            request["path"] = path
        return self.rpc(request)

    def healthy(self) -> bool:
        try:
            return self.transport.request("GET", "/healthz")[0] == 200
        except TransportError:
            return False

    def close(self) -> None:
        """Drop the pooled connections."""
        self.transport.close()


@dataclass(frozen=True)
class RequestResult:
    """One request's fate as seen by the load generator."""

    job_id: int
    status: int
    outcome: str           # decision outcome, or the error code
    latency: float         # seconds
    sent_at: float         # seconds since generator start
    lag: float             # how late the send fired vs its schedule


@dataclass(frozen=True)
class LoadReport:
    """Aggregate throughput/latency statistics of one generator run."""

    requests: int
    ok: int
    errors: int
    duration: float
    outcomes: dict[str, int]
    latency_p50: float
    latency_p90: float
    latency_p99: float
    latency_max: float
    latency_p999: float = 0.0
    #: Cumulative histogram of request latencies over the run's bucket
    #: bounds (Prometheus convention: each bucket counts observations
    #: ``<= bound``; the ``+Inf`` bucket equals ``requests``).
    latency_histogram: dict[str, int] = field(default_factory=dict)
    results: tuple[RequestResult, ...] = field(repr=False, default=())

    @property
    def rps(self) -> float:
        """Sustained requests per second over the whole run."""
        return self.requests / self.duration if self.duration > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "duration": self.duration,
            "rps": self.rps,
            "outcomes": dict(self.outcomes),
            "latency_p50": self.latency_p50,
            "latency_p90": self.latency_p90,
            "latency_p99": self.latency_p99,
            "latency_p999": self.latency_p999,
            "latency_max": self.latency_max,
            "latency_histogram": dict(self.latency_histogram),
        }

    def __str__(self) -> str:
        return (
            f"{self.requests} requests in {self.duration:.3f}s "
            f"({self.rps:.1f} req/s), {self.errors} errors; latency "
            f"p50={self.latency_p50 * 1e3:.2f}ms p90={self.latency_p90 * 1e3:.2f}ms "
            f"p99={self.latency_p99 * 1e3:.2f}ms "
            f"p99.9={self.latency_p999 * 1e3:.2f}ms "
            f"max={self.latency_max * 1e3:.2f}ms"
        )


class LoadGenerator:
    """Stream a job list at an SWF trace's own cadence, sped up.

    Parameters
    ----------
    client:
        Target service.
    jobs:
        The stream (sorted by submit time; a guard sorts defensively).
    speedup:
        Trace seconds per wall-clock second.  ``inf`` (or anything
        making every gap < 1 µs) degenerates to back-to-back sends.
    workers:
        ``<= 1``: one ordered sender (safe against virtual-clock
        servers).  ``> 1``: that many concurrent senders, each taking
        the next due job — open-loop while fewer than ``workers``
        requests are outstanding (``lag`` reports any lateness), and at
        most ``workers`` connections to the server.
    latency_buckets:
        Ascending positive histogram bucket bounds (seconds) for the
        report's cumulative latency histogram; defaults to
        :data:`DEFAULT_LATENCY_BUCKETS`.
    batch:
        Jobs per request.  ``1`` (the default) sends plain ``submit``
        frames — the pre-batch wire behaviour, byte-for-byte.  ``> 1``
        groups up to ``batch`` consecutive jobs into one batch frame,
        scheduled at the *first* job's offset, and unpacks the per-item
        envelopes into one :class:`RequestResult` per job (items of a
        frame share the frame's round-trip latency).  Batching implies
        the single ordered sender; ``workers > 1`` with ``batch > 1``
        is refused because concurrent frames would interleave
        submit-time order within the server.
    """

    def __init__(
        self,
        client: ServiceClient,
        jobs: Sequence[Job],
        speedup: float = 1.0,
        workers: int = 1,
        latency_buckets: Optional[Sequence[float]] = None,
        batch: int = 1,
    ) -> None:
        if speedup <= 0:
            raise ValueError(f"speedup must be > 0, got {speedup}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if batch > 1 and workers > 1:
            raise ValueError("batch > 1 requires the single ordered sender")
        bounds = tuple(
            float(b) for b in (
                latency_buckets if latency_buckets is not None
                else DEFAULT_LATENCY_BUCKETS
            )
        )
        if not bounds:
            raise ValueError("latency_buckets must not be empty")
        if any(b <= 0 for b in bounds) or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"latency_buckets must be positive and strictly ascending, "
                f"got {bounds}"
            )
        self.client = client
        self.jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        self.speedup = float(speedup)
        self.workers = workers
        self.latency_buckets = bounds
        self.batch = int(batch)
        self._results: list[RequestResult] = []
        self._lock = threading.Lock()

    # -- one request -------------------------------------------------------
    def _fire(self, jobs: Sequence[Job], offset: float, epoch: float) -> None:
        """Send one request at its scheduled time; one result per job.

        ``batch == 1`` sends the plain ``submit`` frame, otherwise
        ``jobs`` travel as one batch frame.
        """
        target = epoch + offset
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent_at = time.monotonic()
        t0 = time.perf_counter()
        # ServiceClient.rpc maps transport errors to a typed status-0
        # result, so a flaky server shows up in the report, not as an
        # aborted run.
        items = None
        if self.batch == 1:
            status, response = self.client.submit(jobs[0])
        else:
            status, response = self.client.submit_batch(jobs)
            if response.get("ok"):
                items = response.get("results")
        latency = time.perf_counter() - t0
        results = []
        for i, job in enumerate(jobs):
            # Without per-item envelopes (a plain submit, or a frame that
            # failed whole: transport error, shed, draining) every job
            # shares the response's fate.
            if items is None:
                item = response
            else:
                item = items[i] if i < len(items) else {}
            item_status = status
            if item.get("ok"):
                outcome = item.get("decision", {}).get("outcome", "ok")
            else:
                outcome = item.get("error", {}).get("code", "error")
                if items is not None:
                    item_status = protocol.HTTP_STATUS.get(outcome, status)
            results.append(RequestResult(
                job_id=job.job_id,
                status=item_status,
                outcome=outcome,
                latency=latency,
                sent_at=sent_at - epoch,
                lag=max(0.0, sent_at - target),
            ))
        with self._lock:
            self._results.extend(results)

    # -- the run -----------------------------------------------------------
    def run(self) -> LoadReport:
        """Send the whole stream; blocks until every response is in."""
        self._results = []
        if not self.jobs:
            return LoadReport(
                requests=0, ok=0, errors=0, duration=0.0, outcomes={},
                latency_p50=0.0, latency_p90=0.0, latency_p99=0.0,
                latency_max=0.0,
            )
        base = self.jobs[0].submit_time
        # One request per group of ``batch`` consecutive jobs, due at the
        # first job's offset.
        schedule = iter([
            (self.jobs[i:i + self.batch],
             (self.jobs[i].submit_time - base) / self.speedup)
            for i in range(0, len(self.jobs), self.batch)
        ])
        epoch = time.monotonic()

        def sender() -> None:
            while True:
                with self._lock:
                    due = next(schedule, None)
                if due is None:
                    return
                self._fire(due[0], due[1], epoch)

        if self.workers <= 1:
            sender()
        else:
            threads = [
                threading.Thread(target=sender, daemon=True)
                for _ in range(self.workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        duration = time.monotonic() - epoch
        return self._report(duration)

    def _report(self, duration: float) -> LoadReport:
        results = sorted(self._results, key=lambda r: r.sent_at)
        latencies = sorted(r.latency for r in results)
        outcomes: dict[str, int] = {}
        ok = 0
        for r in results:
            outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
            if 200 <= r.status < 300:
                ok += 1
        histogram: dict[str, int] = {}
        cumulative = 0
        index = 0
        for bound in self.latency_buckets:
            while index < len(latencies) and latencies[index] <= bound:
                cumulative += 1
                index += 1
            histogram[f"{bound:g}"] = cumulative
        histogram["+Inf"] = len(latencies)
        report = LoadReport(
            requests=len(results),
            ok=ok,
            errors=len(results) - ok,
            duration=duration,
            outcomes=outcomes,
            latency_p50=percentile(latencies, 50.0),
            latency_p90=percentile(latencies, 90.0),
            latency_p99=percentile(latencies, 99.0),
            latency_p999=percentile(latencies, 99.9),
            latency_max=latencies[-1],
            latency_histogram=histogram,
            results=tuple(results),
        )
        log.info("%s", report)
        return report


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "LoadGenerator",
    "LoadReport",
    "RequestResult",
    "ServiceClient",
    "job_request_payload",
    "percentile",
]
