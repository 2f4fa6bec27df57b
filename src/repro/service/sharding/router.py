"""The sharded admission service's routing front-end.

One :class:`ShardRouter` sits in front of N shard workers (each an
ordinary ``repro serve`` process over its slice of the cluster, see
:mod:`repro.service.sharding.partition`) and presents the *same* HTTP
surface a single server does — ``POST /v1/rpc``, ``GET /healthz``,
``GET /v1/stats``, ``GET /metrics`` — so clients, the load generator,
and ``repro top`` work unchanged against a sharded deployment.

Routing rules
-------------
* ``submit`` / ``query`` / ``trace`` forward the **raw request body**
  to the one shard owning the job (stable job-id/user hash) — the shard
  worker's response passes through byte-identical, which is what keeps
  duplicate-submit idempotency working: a retry hashes to the same
  shard and is answered from its decision log.  With exactly one shard
  *every* RPC passes through raw, so a 1-shard router is byte-identical
  on the wire to an unsharded server.
* ``batch`` frames are split into per-shard sub-frames (preserving the
  submit-time order within each shard); per-item envelopes are merged
  back into the original positions.
* ``stats`` / ``advance`` / ``drain`` fan out to every shard and merge;
  ``checkpoint`` requires a ``path`` and fans out with shard-namespaced
  filenames.
* Every fan-out (``/healthz`` and ``/metrics`` too) runs on the calling
  thread: write each shard's request, then read the answers in shard
  order.  The shards work while the caller blocks in ``recv``, so a
  frame costs its slowest shard and the router starts no thread.  Only
  a shard's *first* attempt is written ahead; a retry waits its turn.

Degraded mode
-------------
Every shard gets a :class:`~repro.service.sharding.breaker.ShardBreaker`
(closed/open/half-open, driven by consecutive forward failures and
``/healthz`` probes) so a dead shard fails fast instead of eating a
connect timeout per request, plus bounded forward retries with
deterministic backoff that honors a shard's ``Retry-After`` hint.
With ``max_parked > 0`` the router also **parks** submits owned by a
down shard in arrival order and flushes them in order on recovery —
see :mod:`repro.service.sharding.parking` — so a shard kill leaves no
client-visible submit loss and the recovered fleet's WALs and metrics
are byte-identical to an un-killed run.

The router remains stateless about *admission*: no engine, no WAL.
Parked bodies are an in-flight buffer, not durable state — a router
crash loses only requests that were never acked as applied, exactly
like requests lost on the wire.
"""

from __future__ import annotations

import json
import threading
import time
from time import perf_counter
from typing import Any, Callable, Optional, Union

from repro.obs.console import parse_prometheus
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service import protocol
from repro.service.engine import EngineConfig
from repro.service.protocol import ErrorCode, ProtocolError
from repro.service.server import HttpFrontend
from repro.service.sharding.breaker import CLOSED, HALF_OPEN, OPEN, ShardBreaker
from repro.service.sharding.parking import ParkingLot
from repro.service.sharding.partition import plan_shards, shard_for_submit
from repro.service.sharding.paths import shard_path
from repro.service.transport import InFlight, Transport, TransportError

log = get_logger("service.sharding.router")

#: The written half of one exchange: the request in flight, or why the
#: write failed (reported when the answer would have been read).
_Sent = Union[InFlight, TransportError]

#: Metric keys of a drained ``ScenarioMetrics`` dict that merge by sum.
_SUM_KEYS = (
    "total_submitted", "accepted", "rejected", "completed", "unfinished",
    "failed", "deadlines_fulfilled", "completed_late",
    "high_submitted", "high_fulfilled", "low_submitted", "low_fulfilled",
)


def merge_scenario_metrics(
    per_shard: list[dict[str, Any]], node_counts: list[int]
) -> dict[str, Any]:
    """Combine per-shard drained metrics into cluster-wide metrics.

    Counts sum; ratios are recomputed from the summed numerators and
    denominators (exact — this is why ``ScenarioMetrics.as_dict`` carries
    the raw per-class counts); the per-job means (``avg_slowdown``,
    ``avg_delay_of_late_jobs``) are job-count-weighted means, and
    ``utilisation`` is node-count-weighted.  A single shard passes
    through untouched, so a 1-shard merge is byte-identical to the
    unsharded metrics dict.
    """
    if len(per_shard) != len(node_counts):
        raise ValueError("per_shard and node_counts must be parallel")
    if not per_shard:
        raise ValueError("cannot merge zero shards")
    if len(per_shard) == 1:
        return dict(per_shard[0])
    merged: dict[str, Any] = {}
    for key in _SUM_KEYS:
        merged[key] = sum(m[key] for m in per_shard)
    total = merged["total_submitted"]
    fulfilled = merged["deadlines_fulfilled"]
    late = merged["completed_late"]
    merged["pct_deadlines_fulfilled"] = 100.0 * fulfilled / total if total else 0.0
    merged["acceptance_pct"] = 100.0 * merged["accepted"] / total if total else 0.0
    merged["avg_slowdown"] = (
        sum(m["avg_slowdown"] * m["deadlines_fulfilled"] for m in per_shard) / fulfilled
        if fulfilled else 0.0
    )
    merged["avg_delay_of_late_jobs"] = (
        sum(m["avg_delay_of_late_jobs"] * m["completed_late"] for m in per_shard) / late
        if late else 0.0
    )
    nodes = sum(node_counts)
    merged["utilisation"] = (
        sum(m["utilisation"] * n for m, n in zip(per_shard, node_counts)) / nodes
        if nodes else 0.0
    )
    merged["high_pct_fulfilled"] = (
        100.0 * merged["high_fulfilled"] / merged["high_submitted"]
        if merged["high_submitted"] else 0.0
    )
    merged["low_pct_fulfilled"] = (
        100.0 * merged["low_fulfilled"] / merged["low_submitted"]
        if merged["low_submitted"] else 0.0
    )
    # Render in the exact key order ScenarioMetrics.as_dict uses, so a
    # merged dict and a single-engine dict serialize identically.
    order = (
        "total_submitted", "accepted", "rejected", "completed", "unfinished",
        "failed", "deadlines_fulfilled", "pct_deadlines_fulfilled",
        "avg_slowdown", "avg_delay_of_late_jobs", "completed_late",
        "utilisation", "acceptance_pct", "high_pct_fulfilled",
        "low_pct_fulfilled", "high_submitted", "high_fulfilled",
        "low_submitted", "low_fulfilled",
    )
    return {key: merged[key] for key in order}


def _format_sample(value: float) -> str:
    """Deterministic Prometheus sample rendering (ints without dots)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class ShardRouter:
    """Stateless fan-out front-end over N shard worker URLs.

    Parameters
    ----------
    config:
        The *unsharded* base :class:`EngineConfig`; the router re-derives
        the shard plan from it (node counts feed the metrics merge).
    backends:
        One worker base URL per shard; index is the shard id.
    timeout:
        Per-forward HTTP timeout (seconds).
    max_request_bytes:
        Body-size limit advertised to the shared HTTP handler.
    failure_threshold / breaker_reset:
        Per-shard circuit breaker tuning: consecutive transport
        failures before the circuit opens, and the cooldown before a
        half-open probe.
    forward_retries / retry_backoff:
        Bounded per-request retry on transport failure or shedding:
        up to ``forward_retries`` re-sends with deterministic
        exponential backoff (``retry_backoff * 2**attempt``), a shard's
        ``Retry-After`` hint overriding the computed delay.
    max_parked:
        Failover parking capacity per shard; ``0`` (the default)
        disables parking — submits to a down shard get the typed
        ``unavailable`` error instead.
    clock / sleep:
        Injectable time sources so breaker/retry schedules are
        deterministic under test.
    """

    def __init__(
        self,
        config: EngineConfig,
        backends: list[str],
        timeout: float = 10.0,
        max_request_bytes: int = 1024 * 1024,
        registry: Optional[MetricsRegistry] = None,
        failure_threshold: int = 5,
        breaker_reset: float = 0.5,
        forward_retries: int = 1,
        retry_backoff: float = 0.05,
        max_parked: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not backends:
            raise ValueError("need at least one shard backend")
        if forward_retries < 0:
            raise ValueError("forward_retries must be >= 0")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if max_parked < 0:
            raise ValueError("max_parked must be >= 0")
        self.config = config
        self.configs = plan_shards(config, len(backends))
        self.backends = [url.rstrip("/") for url in backends]
        self.num_shards = len(backends)
        self.timeout = float(timeout)
        self._transports = [
            Transport(url, timeout=self.timeout) for url in self.backends
        ]
        self.max_request_bytes = int(max_request_bytes)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.draining = False
        self.forward_retries = int(forward_retries)
        self.retry_backoff = float(retry_backoff)
        self.max_parked = int(max_parked)
        self._sleep = sleep
        self.breakers = [
            ShardBreaker(
                shard, failure_threshold=failure_threshold,
                reset_timeout=breaker_reset, clock=clock,
            )
            for shard in range(self.num_shards)
        ]
        self.parking = [
            ParkingLot(shard, max_parked) for shard in range(self.num_shards)
        ]
        #: One lock per shard serialises park/flush ordering decisions.
        self._park_locks = [threading.Lock() for _ in range(self.num_shards)]
        #: Worker pids, filled in by the supervisor (surfaced on /healthz
        #: so chaos harnesses can aim their kill -9 at a real shard).
        self.shard_pids: dict[int, int] = {}

    # -- low-level forwarding ----------------------------------------------
    def _write(
        self, shard: int, body: Optional[bytes],
        method: str = "POST", path: str = "/v1/rpc",
    ) -> _Sent:
        """Write one request to a shard without waiting for its answer."""
        try:
            return self._transports[shard].send(method, path, body)
        except TransportError as exc:
            return exc

    def _read(self, shard: int, sent: _Sent) -> tuple[int, bytes]:
        """The answer to one :meth:`_write`; either half's failure raises."""
        if isinstance(sent, TransportError):
            raise sent
        return self._transports[shard].receive(sent)

    def _forward_once(self, shard: int, sent: _Sent) -> tuple[int, dict[str, Any], bool]:
        """Finish one POST attempt: ``(status, response, shard_fault)``.

        ``shard_fault`` is True for failures that indict the *shard*
        (connection refused/reset/timeout, or a malformed/truncated
        response body) — these feed its circuit breaker.  App-level
        refusals prove the shard is alive and do not.
        """
        try:
            status, raw = self._read(shard, sent)
        except TransportError as exc:
            self._note_forward_error(shard)
            return 503, protocol.error_response(
                ErrorCode.UNAVAILABLE, f"shard {shard}: {exc}"
            ), True
        parsed = protocol.decode_response(status, raw)
        if parsed is not None:
            return status, parsed, False
        # A 200 with an unparseable body means the shard died (or was
        # truncated) mid-response: a typed per-shard fault, not an
        # exception loose in the router's handler thread.
        self._note_forward_error(shard)
        return 503, protocol.error_response(
            ErrorCode.UNAVAILABLE, f"shard {shard}: malformed response body"
        ), True

    def close(self) -> None:
        """Drop the pooled shard connections."""
        for transport in self._transports:
            transport.close()

    def _note_forward_error(self, shard: int) -> None:
        self.registry.counter(
            "router_forward_errors_total",
            "Transport failures forwarding to a shard",
            shard=str(shard),
        ).inc()

    def _retry_delay(self, attempt: int, response: dict[str, Any]) -> float:
        """Deterministic backoff; a shard's Retry-After hint wins."""
        hint = response.get("error", {}).get("retry_after")
        if isinstance(hint, (int, float)) and hint >= 0:
            # Cap the shard's hint: a forward retry must stay cheap
            # relative to the client's own retry budget.
            return min(float(hint), self.timeout, 1.0)
        return self.retry_backoff * (2 ** attempt)

    def _fail_fast(self, shard: int) -> tuple[int, dict[str, Any]]:
        """Breaker is open: answer without touching the wire."""
        self.registry.counter(
            "router_breaker_fast_fail_total",
            "Requests refused while a shard's circuit was open",
            shard=str(shard),
        ).inc()
        return 503, protocol.error_response(
            ErrorCode.UNAVAILABLE,
            f"shard {shard}: circuit open",
            retry_after=round(self.breakers[shard].retry_after(), 6),
        )

    def _post(self, shard: int, body: bytes) -> tuple[int, dict[str, Any]]:
        """POST one raw RPC body to a shard, with breaker + bounded retry."""
        return self._fan_out({shard: body})[shard]

    def _fan_out(self, bodies: dict[int, bytes]) -> dict[int, tuple[int, dict[str, Any]]]:
        """POST ``{shard: body}``: write every first attempt (an open
        breaker fails fast instead), then read one answer per shard."""
        answers: dict[int, tuple[int, dict[str, Any]]] = {}
        written: dict[int, _Sent] = {}
        for shard, body in bodies.items():
            if self.breakers[shard].allow():
                written[shard] = self._write(shard, body)
            else:
                answers[shard] = self._fail_fast(shard)
        for shard, sent in written.items():
            answers[shard] = self._settle(shard, bodies[shard], sent)
        return answers

    def _settle(self, shard: int, body: bytes, sent: _Sent) -> tuple[int, dict[str, Any]]:
        """Read a written first attempt; retry whole within the bounds."""
        breaker = self.breakers[shard]
        attempts = self.forward_retries + 1
        for attempt in range(attempts):
            status, response, shard_fault = self._forward_once(shard, sent)
            if shard_fault:
                breaker.record_failure()
            else:
                breaker.record_success()
                code = response.get("error", {}).get("code")
                if code != ErrorCode.OVERLOADED:
                    return status, response
            if attempt + 1 >= attempts or not breaker.allow():
                break
            delay = self._retry_delay(attempt, response)
            if delay > 0:
                self._sleep(delay)
            sent = self._write(shard, body)
        return status, response

    def _get_all(self, path: str) -> list[tuple[int, Optional[dict[str, Any]], str]]:
        """GET a side endpoint from every shard: ``(status, json, text)`` each."""
        written = [self._write(shard, None, "GET", path) for shard in range(self.num_shards)]
        return [self._get(shard, sent) for shard, sent in enumerate(written)]

    def _get(self, shard: int, sent: _Sent) -> tuple[int, Optional[dict[str, Any]], str]:
        try:
            status, raw = self._read(shard, sent)
        except TransportError:
            return 0, None, ""
        text = raw.decode("utf-8", errors="replace")
        try:
            return status, json.loads(text), text
        except ValueError:
            return status, None, text

    # -- failover parking ---------------------------------------------------
    @property
    def parking_enabled(self) -> bool:
        return self.max_parked > 0

    @staticmethod
    def _job_key(job: dict[str, Any]) -> Optional[int]:
        job_id = job.get("id")
        if isinstance(job_id, int) and not isinstance(job_id, bool):
            return job_id
        return None

    def _owner_of(self, job: dict[str, Any]) -> int:
        user = job.get("user")
        return shard_for_submit(
            self._job_key(job),
            user if isinstance(user, str) else None,
            self.num_shards,
        )

    def _shard_ready(self, shard: int) -> bool:
        """May a submit be forwarded to ``shard`` directly right now?

        Not ready while the breaker refuses *or* while parked submits
        are still queued — forwarding past a non-empty lot would reorder
        the shard's WAL relative to an un-killed run.  A non-empty lot
        with a willing breaker triggers an in-order flush attempt first.
        """
        lot = self.parking[shard]
        with self._park_locks[shard]:
            if len(lot) and self.breakers[shard].allow():
                self._flush_locked(shard)
            return len(lot) == 0 and self.breakers[shard].allow()

    def _flush_locked(self, shard: int) -> int:
        """Replay the lot oldest-first; caller holds the shard's park lock."""
        lot = self.parking[shard]
        items = lot.take_all()
        flushed = 0
        while items:
            status, response, shard_fault = self._forward_once(
                shard, self._write(shard, items[0].body)
            )
            if shard_fault:
                # Shard died again mid-flush: everything not yet replayed
                # (including this one) goes back to the head, in order.
                self.breakers[shard].record_failure()
                lot.requeue_front(items)
                break
            # Non-transport answers (accepted, duplicate, conflict …)
            # are the shard's recorded decision; the parked client was
            # already acked, so the response itself is dropped.
            self.breakers[shard].record_success()
            items.pop(0)
            flushed += 1
        if flushed:
            lot.note_flushed(flushed)
            self.registry.counter(
                "router_park_flushed_total",
                "Parked submits replayed to a recovered shard",
                shard=str(shard),
            ).inc(flushed)
            log.info("shard %d recovered: flushed %d parked submit(s)",
                     shard, flushed)
        return flushed

    def flush_parking(self) -> dict[str, int]:
        """Flush every shard whose breaker allows it; ``{shard: flushed}``."""
        flushed: dict[str, int] = {}
        if not self.parking_enabled:
            return flushed
        for shard in range(self.num_shards):
            lot = self.parking[shard]
            with self._park_locks[shard]:
                if len(lot) and self.breakers[shard].allow():
                    count = self._flush_locked(shard)
                    if count:
                        flushed[str(shard)] = count
        return flushed

    def _park_submit(
        self, shard: int, job: dict[str, Any], body: bytes
    ) -> tuple[int, dict[str, Any]]:
        """Park one raw submit frame for ``shard``; typed overflow refusal."""
        key = self._job_key(job)
        lot = self.parking[shard]
        with self._park_locks[shard]:
            accepted = lot.park(key, body)
        if not accepted:
            self.registry.counter(
                "router_park_rejected_total",
                "Submits refused because a shard's parking lot was full",
                shard=str(shard),
            ).inc()
            return 503, protocol.error_response(
                ErrorCode.PARKING_FULL,
                f"shard {shard} is down and its parking lot "
                f"({lot.capacity}) is full",
                retry_after=round(
                    max(self.breakers[shard].retry_after(), self.retry_backoff),
                    6,
                ),
            )
        self.registry.counter(
            "router_parked_total",
            "Submits parked for a down shard",
            shard=str(shard),
        ).inc()
        payload: dict[str, Any] = {"shard": shard}
        if key is not None:
            payload["job"] = key
        return 200, protocol.ok_response("parked", **payload)

    @staticmethod
    def _single_submit_frame(job: dict[str, Any]) -> bytes:
        """A batch item re-framed as the single submit its flush will send."""
        return protocol.encode({
            "v": protocol.PROTOCOL_VERSION, "type": "submit", "job": job,
        })

    # -- request handling ---------------------------------------------------
    def handle(self, body: bytes) -> tuple[int, dict[str, Any]]:
        """Route one protocol request; returns ``(http_status, response)``."""
        t0 = perf_counter()
        rtype = "invalid"
        try:
            request = protocol.parse_request(body)
            rtype = type(request).__name__.replace("Request", "").lower()
            if self.draining:
                err = protocol.error_response(
                    ErrorCode.SHUTTING_DOWN, "router is shutting down"
                )
                return protocol.HTTP_STATUS[ErrorCode.SHUTTING_DOWN], err
            status, response = self._route(request, body)
        except ProtocolError as exc:
            status, response = exc.http_status, protocol.error_response(
                exc.code, exc.message
            )
        except Exception as exc:
            # The handler thread must outlive any bug in the routing
            # code: a typed 500, never a dead connection.
            log.exception("unexpected failure routing %s request", rtype)
            status = protocol.HTTP_STATUS[ErrorCode.INTERNAL]
            response = protocol.error_response(
                ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        finally:
            self.registry.histogram(
                "router_request_seconds", "Router request handling latency",
                buckets=(0.0005, 0.0025, 0.01, 0.05, 0.25, 1.0), type=rtype,
            ).observe(perf_counter() - t0)
        outcome = "ok" if response.get("ok") else response.get(
            "error", {}
        ).get("code", "error")
        self.registry.counter(
            "router_requests_total", "Routed requests by type and outcome",
            type=rtype, outcome=outcome,
        ).inc()
        return status, response

    def _route(self, request: Any, body: bytes) -> tuple[int, dict[str, Any]]:
        if isinstance(request, protocol.SubmitRequest):
            # Works unchanged at one shard (the owner is shard 0), so the
            # healthy path stays a raw byte-identical passthrough.
            shard = self._owner_of(request.job)
            if self.parking_enabled and not self._shard_ready(shard):
                return self._park_submit(shard, request.job, body)
            status, response = self._post(shard, body)
            if (
                self.parking_enabled
                and response.get("error", {}).get("code") == ErrorCode.UNAVAILABLE
            ):
                # The shard died under this very request: park it rather
                # than surfacing the error — the first casualty of a
                # crash gets the same no-loss guarantee as the backlog.
                return self._park_submit(shard, request.job, body)
            return status, response
        if isinstance(request, protocol.BatchRequest):
            if self.num_shards == 1 and not (
                self.parking_enabled and not self._shard_ready(0)
            ):
                return self._post(0, body)
            return self._route_batch(request)
        if self.num_shards == 1:
            # One shard IS the unsharded server: every other RPC
            # (including stats/drain/checkpoint, which would otherwise
            # re-merge) passes through raw, keeping the router
            # byte-invisible.  Any parked backlog settles first so
            # stats/advance/drain see the full stream.
            self.flush_parking()
            return self._post(0, body)
        if isinstance(request, (protocol.QueryRequest, protocol.TraceRequest)):
            shard = shard_for_submit(request.job_id, None, self.num_shards)
            return self._post(shard, body)
        if isinstance(request, protocol.StatsRequest):
            return self._route_stats(body)
        if isinstance(request, protocol.AdvanceRequest):
            return self._route_advance(body)
        if isinstance(request, protocol.DrainRequest):
            return self._route_drain(body)
        if isinstance(request, protocol.CheckpointRequest):
            return self._route_checkpoint(request)
        raise ProtocolError(  # pragma: no cover - parse_request is exhaustive
            ErrorCode.UNKNOWN_TYPE, f"unroutable request {type(request).__name__}"
        )

    def _route_batch(self, request: protocol.BatchRequest) -> tuple[int, dict[str, Any]]:
        """Split a batch frame by shard, fan out, re-merge."""
        slots: list[list[int]] = [[] for _ in range(self.num_shards)]
        for position, job in enumerate(request.jobs):
            job_id = job.get("id")
            user = job.get("user")
            shard = shard_for_submit(
                job_id if isinstance(job_id, int) and not isinstance(job_id, bool)
                else None,
                user if isinstance(user, str) else None,
                self.num_shards,
            )
            slots[shard].append(position)
        results: list[Optional[dict[str, Any]]] = [None] * len(request.jobs)
        bodies: dict[int, bytes] = {}
        for shard in range(self.num_shards):
            if not slots[shard]:
                continue
            if self.parking_enabled and not self._shard_ready(shard):
                # Only the down shard's items park; siblings forward.
                for position in slots[shard]:
                    job = request.jobs[position]
                    _, parked = self._park_submit(
                        shard, job, self._single_submit_frame(job)
                    )
                    results[position] = parked
                continue
            bodies[shard] = protocol.encode({
                "v": protocol.PROTOCOL_VERSION, "type": "batch",
                "jobs": [request.jobs[p] for p in slots[shard]],
            })
        answers = self._fan_out(bodies)
        for shard in bodies:
            _, response = answers[shard]
            items = response.get("results") if response.get("ok") else None
            failed_code = response.get("error", {}).get("code")
            for offset, position in enumerate(slots[shard]):
                if items is not None and offset < len(items):
                    results[position] = items[offset]
                elif (
                    self.parking_enabled
                    and failed_code == ErrorCode.UNAVAILABLE
                ):
                    # The shard died mid-batch: its items park instead
                    # of surfacing the frame error (lot-full still
                    # yields the typed overflow refusal per item).
                    job = request.jobs[position]
                    _, parked = self._park_submit(
                        shard, job, self._single_submit_frame(job)
                    )
                    results[position] = parked
                else:
                    # Whole sub-frame failed (shard down, shedding):
                    # every one of its items inherits the frame error.
                    results[position] = dict(response)
        merged = [r if r is not None else protocol.error_response(
            ErrorCode.INTERNAL, "batch item lost in routing"
        ) for r in results]
        return 200, protocol.ok_response("batch", results=merged)

    def _route_stats(self, body: bytes) -> tuple[int, dict[str, Any]]:
        self.flush_parking()
        answers = self._fan_out(dict.fromkeys(range(self.num_shards), body))
        shards: dict[str, Any] = {}
        merged = {"submitted": 0, "accepted": 0, "rejected": 0, "completed": 0}
        horizon = 0.0
        reachable = 0
        for shard in range(self.num_shards):
            status, response = answers[shard]
            if response.get("ok"):
                stats = response["stats"]
                shards[str(shard)] = stats
                reachable += 1
                for key in ("submitted", "accepted", "rejected", "completed"):
                    merged[key] += int(stats.get(key, 0))
                horizon = max(horizon, float(stats.get("t", 0.0)))
            else:
                shards[str(shard)] = {"error": response.get("error", {})}
        payload = dict(merged)
        payload["t"] = horizon
        payload["shard_count"] = self.num_shards
        payload["shards_reachable"] = reachable
        payload["shards"] = shards
        return 200, protocol.ok_response("stats", stats=payload)

    def _route_advance(self, body: bytes) -> tuple[int, dict[str, Any]]:
        # Parked submits must land before the fleet clock moves past
        # their submit times, or replay order would differ.
        self.flush_parking()
        answers = self._fan_out(dict.fromkeys(range(self.num_shards), body))
        horizon = 0.0
        events = 0
        for shard in range(self.num_shards):
            status, response = answers[shard]
            if not response.get("ok"):
                return status, response
            horizon = max(horizon, float(response["t"]))
            events += int(response["events"])
        return 200, protocol.ok_response("advanced", t=horizon, events=events)

    def _route_drain(self, body: bytes) -> tuple[int, dict[str, Any]]:
        # A drain is the fleet's settlement point: replay any parked
        # backlog first so the drained metrics include every acked
        # submit (byte-identical to an un-killed run once flushed).
        self.flush_parking()
        answers = self._fan_out(dict.fromkeys(range(self.num_shards), body))
        horizon = 0.0
        per_shard: list[dict[str, Any]] = []
        shards: dict[str, Any] = {}
        for shard in range(self.num_shards):
            status, response = answers[shard]
            if not response.get("ok"):
                # A failed drain leaves the fleet half-drained; surface
                # the first failure rather than inventing merged numbers.
                return status, response
            horizon = max(horizon, float(response["t"]))
            per_shard.append(response["metrics"])
            shards[str(shard)] = response["metrics"]
        merged = merge_scenario_metrics(
            per_shard, [cfg.num_nodes for cfg in self.configs]
        )
        response = protocol.ok_response("drained", t=horizon, metrics=merged)
        if self.num_shards > 1:
            response["shards"] = shards
        return 200, response

    def _route_checkpoint(
        self, request: protocol.CheckpointRequest
    ) -> tuple[int, dict[str, Any]]:
        if request.path is None:
            raise ProtocolError(
                ErrorCode.INVALID_FIELD,
                "a sharded checkpoint requires a path (inline snapshots "
                "do not compose across shards)",
            )
        bodies: dict[int, bytes] = {}
        paths: dict[str, str] = {}
        for shard in range(self.num_shards):
            target = shard_path(request.path, shard, self.num_shards)
            paths[str(shard)] = target
            bodies[shard] = protocol.encode({
                "v": protocol.PROTOCOL_VERSION, "type": "checkpoint",
                "path": target,
            })
        answers = self._fan_out(bodies)
        for shard in range(self.num_shards):
            status, response = answers[shard]
            if not response.get("ok"):
                return status, response
        return 200, protocol.ok_response("checkpoint", paths=paths)

    # -- read-only side endpoints -------------------------------------------
    def stats_response(self) -> dict[str, Any]:
        body = protocol.encode({"v": protocol.PROTOCOL_VERSION, "type": "stats"})
        if self.num_shards == 1:
            return self._post(0, body)[1]
        return self._route_stats(body)[1]

    def health_response(self) -> dict[str, Any]:
        """Merged ``GET /healthz``: the fleet's worst news, summarized.

        ``status`` is ``"ok"`` only when every shard answers ``"ok"``;
        one draining / degraded / unreachable shard makes the fleet
        ``"degraded"`` (still routable — the healthy shards keep
        serving); all shards unreachable is ``"down"`` (``ok: false``,
        served as 503 so load balancers stop routing); a draining
        router reports ``"draining"``.
        """
        probes = self._get_all("/healthz")
        for shard, (status, payload, _) in enumerate(probes):
            # Health probes drive the breaker alongside forwards: a dead
            # probe re-arms the cooldown without waiting for a request
            # to burn a connect timeout; a healthy one closes the
            # circuit so the parked backlog can flush immediately.
            if payload is None:
                self.breakers[shard].record_failure()
            elif bool(payload.get("ok", status == 200)):
                self.breakers[shard].record_success()
        self.flush_parking()

        shards: dict[str, Any] = {}
        down = 0
        worst_ok = True
        parked = 0
        for shard, (status, payload, _) in enumerate(probes):
            entry: dict[str, Any] = {"url": self.backends[shard]}
            pid = self.shard_pids.get(shard)
            if pid is not None:
                entry["pid"] = pid
            if payload is None:
                entry["status"] = "down"
                entry["ok"] = False
                down += 1
                worst_ok = False
            else:
                entry["status"] = payload.get("status", "ok")
                entry["ok"] = bool(payload.get("ok", status == 200))
                if entry["status"] != "ok":
                    worst_ok = False
            entry["breaker"] = self.breakers[shard].snapshot()
            if self.parking_enabled:
                entry["parking"] = self.parking[shard].snapshot()
                parked += len(self.parking[shard])
            shards[str(shard)] = entry
        if self.draining:
            status_text = "draining"
        elif down == self.num_shards:
            status_text = "down"
        elif not worst_ok:
            status_text = "degraded"
        else:
            status_text = "ok"
        out: dict[str, Any] = {
            "ok": status_text not in ("down", "draining"),
            "status": status_text,
            "shard_count": self.num_shards,
            "shards_down": down,
            "shards": shards,
        }
        if self.parking_enabled:
            out["parked"] = parked
            out["parking_capacity"] = self.max_parked * self.num_shards
        return out

    def prometheus_text(self) -> str:
        """Merged ``GET /metrics``: every shard sample gains a shard label.

        Series are re-rendered in sorted ``(name, labels)`` order, so
        the merged exposition is deterministic whenever the per-shard
        expositions are.
        """
        for shard in range(self.num_shards):
            breaker = self.breakers[shard]
            self.registry.gauge(
                "router_breaker_state",
                "Shard circuit state (0 closed, 1 half-open, 2 open)",
                shard=str(shard),
            ).set({CLOSED: 0, HALF_OPEN: 1, OPEN: 2}[breaker.state])
            self.registry.gauge(
                "router_breaker_trips",
                "Times a shard's circuit has opened",
                shard=str(shard),
            ).set(breaker.trips)
            if self.parking_enabled:
                lot = self.parking[shard]
                self.registry.gauge(
                    "router_parked",
                    "Submits currently parked for a down shard",
                    shard=str(shard),
                ).set(len(lot))
        lines: list[str] = [
            "# Merged from %d shard(s); every sample carries a shard label."
            % self.num_shards
        ]
        samples: list[tuple[str, tuple[tuple[str, str], ...], float]] = []
        for shard, (status, _, text) in enumerate(self._get_all("/metrics")):
            if status != 200 or not text:
                continue
            parsed = parse_prometheus(text)
            for name in sorted(parsed):
                for labels, value in sorted(parsed[name].items()):
                    merged_labels = tuple(sorted(
                        labels + (("shard", str(shard)),)
                    ))
                    samples.append((name, merged_labels, value))
        samples.sort(key=lambda s: (s[0], s[1]))
        for name, labels, value in samples:
            blob = ",".join(f'{k}="{v}"' for k, v in labels)
            lines.append(f"{name}{{{blob}}} {_format_sample(value)}")
        from repro.obs.exporters import prometheus_text

        lines.append(prometheus_text(self.registry))
        return "\n".join(lines) + "\n"


class RouterServer(HttpFrontend):
    """HTTP lifecycle wrapper for a :class:`ShardRouter`.

    Reuses the single-server request handler (the router duck-types
    :class:`~repro.service.server.AdmissionService`'s read surface), so
    the sharded front-end speaks byte-identical HTTP.
    """

    def __init__(
        self,
        router: ShardRouter,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(router, host, port)
        self.router = router
        self.label = f"shard router ({router.num_shards} shards)"

    def stop(self) -> bool:
        clean = super().stop()
        self.router.close()
        return clean


__all__ = ["RouterServer", "ShardRouter", "merge_scenario_metrics"]
# (ShardBreaker and ParkingLot are exported via repro.service.sharding.)
