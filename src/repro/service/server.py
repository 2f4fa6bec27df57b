"""The HTTP front-end for the admission engine (``repro serve``).

One :class:`AdmissionService` owns one :class:`AdmissionEngine` behind a
lock (the engine is single-threaded state; HTTP threads serialize on
it) and speaks :mod:`repro.service.protocol` on ``POST /v1/rpc``.
Convenience read-only endpoints mirror common operational queries::

    GET /healthz      -> health status (SLO burn rate, WAL lag, shed state)
    GET /v1/stats     -> stats response (same payload as the RPC)
    GET /metrics      -> Prometheus text of the service registry

Backpressure
------------
Two knobs bound the damage a misbehaving client can do:

* ``max_request_bytes`` — requests with a larger (or missing)
  ``Content-Length`` are refused with 413/411 before the body is read;
* ``max_inflight`` — at most this many requests may hold engine time
  concurrently; excess requests get an immediate 503 ``overloaded``
  (open-loop clients measure this as loss, not latency).

Every request is timed into ``service_request_seconds`` histograms
(labelled by request type) in a :class:`~repro.obs.metrics.MetricsRegistry`,
so admission latency percentiles come straight from ``GET /metrics``.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
from time import monotonic, perf_counter
from typing import Any, Optional, TypeVar

from repro.cluster.job import Job
from repro.metrics.summary import compute_metrics
from repro.obs.log import get_logger
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.service import checkpoint as checkpoint_mod
from repro.service import http11, protocol
from repro.service.engine import (
    AdmissionEngine,
    DuplicateJob,
    EngineError,
    OutOfOrderSubmit,
)
from repro.service.faults import DropRequest, FaultInjector, InjectedError
from repro.service.protocol import ErrorCode, ProtocolError
from repro.service.wal import RecoveryReport, WalError, WriteAheadLog

log = get_logger("service.server")

#: Admission-latency bucket bounds (seconds) — sub-millisecond to 1 s.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0,
)


class AdmissionService:
    """The engine + its service-level guardrails and metrics.

    Parameters
    ----------
    engine:
        The (possibly restored) engine to serve.
    max_request_bytes:
        Upper bound on accepted request bodies.
    max_inflight:
        Queue-depth limit: concurrent requests beyond this are shed
        with ``overloaded``.
    registry:
        Metrics registry for request counters/latency histograms
        (defaults to a fresh one; exposed at ``GET /metrics``).
    wal:
        Optional :class:`~repro.service.wal.WriteAheadLog`.  When
        present, every state-mutating request (submit/advance/drain) is
        appended — and, under ``fsync="always"``, made durable —
        *before* it touches the engine, so a crash never loses an
        acked decision.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`; the
        middleware hook chaos tests use to script drops, 5xx errors,
        delays and crash points.
    retry_after:
        Seconds advertised (JSON ``error.retry_after`` + HTTP
        ``Retry-After``) on shed/draining responses, so well-behaved
        clients back off instead of hammering an overloaded server.
    slo_deadline_miss_objective:
        The SLO: tolerated fraction of completed jobs that miss their
        deadline.  ``GET /healthz`` reports the burn rate (observed
        miss ratio over this objective) and flips the health status to
        ``"degraded"`` once the budget is fully burned (rate > 1).
    """

    def __init__(
        self,
        engine: AdmissionEngine,
        max_request_bytes: int = 64 * 1024,
        max_inflight: int = 64,
        registry: Optional[MetricsRegistry] = None,
        wal: Optional[WriteAheadLog] = None,
        faults: Optional[FaultInjector] = None,
        retry_after: float = 1.0,
        slo_deadline_miss_objective: float = 0.05,
        wal_compact_every: int = 0,
        compact_path: Optional[str] = None,
    ) -> None:
        if max_request_bytes < 1:
            raise ValueError("max_request_bytes must be >= 1")
        if max_inflight < 0:
            raise ValueError("max_inflight must be >= 0")
        if retry_after <= 0:
            raise ValueError("retry_after must be > 0")
        if not 0 < slo_deadline_miss_objective <= 1:
            raise ValueError("slo_deadline_miss_objective must be in (0, 1]")
        if wal_compact_every < 0:
            raise ValueError("wal_compact_every must be >= 0")
        if wal_compact_every and wal is None:
            raise ValueError("wal_compact_every requires a WAL")
        self.engine = engine
        self.max_request_bytes = int(max_request_bytes)
        self.max_inflight = int(max_inflight)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.wal = wal
        self.faults = faults
        self.retry_after = float(retry_after)
        self.slo_deadline_miss_objective = float(slo_deadline_miss_objective)
        #: Compact the WAL once it retains this many records past the
        #: last compaction point (0 disables auto-compaction).
        self.wal_compact_every = int(wal_compact_every)
        self.compact_path = compact_path or (
            wal.path + ".compact.ckpt" if wal is not None else None
        )
        self.draining = False
        self._engine_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._shed_total = 0
        # Metric handles of the request path, looked up once: a registry
        # get-or-create sorts the label keys and takes the registry lock.
        #: (request type, outcome) -> (requests_total, request_seconds).
        self._request_metrics: dict[tuple[str, str], tuple[Counter, Histogram]] = {}
        if wal is not None:
            self._wal_append_seconds = self.registry.histogram(
                "service_wal_append_seconds",
                "Wall-clock latency of one WAL append (including any fsync)",
                buckets=LATENCY_BUCKETS,
            )
            self._wal_appends = self.registry.counter(
                "service_wal_appends_total", "Requests appended to the WAL"
            )

    # -- backpressure accounting -------------------------------------------
    def _acquire_slot(self) -> bool:
        with self._inflight_lock:
            if self._inflight >= self.max_inflight:
                return False
            self._inflight += 1
            return True

    def _release_slot(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    # -- request execution --------------------------------------------------
    def handle(self, body: bytes) -> tuple[int, dict[str, Any]]:
        """Execute one protocol request; returns ``(http_status, response)``.

        May raise :class:`~repro.service.faults.DropRequest` (the HTTP
        layer answers by closing the connection) or let a scripted
        :class:`~repro.service.faults.CrashPoint` propagate — both are
        fault-injection artefacts that must not be converted into
        polite responses.
        """
        if self.faults is not None:
            try:
                self.faults.on_request()
            except InjectedError as exc:
                self.registry.counter(
                    "service_faults_injected_total", "Scripted request failures",
                    kind="error",
                ).inc()
                err = protocol.error_response(ErrorCode.INJECTED, str(exc))
                return protocol.HTTP_STATUS[ErrorCode.INJECTED], err
        if self.draining:
            err = protocol.error_response(
                ErrorCode.SHUTTING_DOWN, "server is shutting down",
                retry_after=self.retry_after,
            )
            return protocol.HTTP_STATUS[ErrorCode.SHUTTING_DOWN], err
        if not self._acquire_slot():
            with self._inflight_lock:
                self._shed_total += 1
            self.registry.counter(
                "service_requests_shed_total", "Requests refused by backpressure"
            ).inc()
            err = protocol.error_response(
                ErrorCode.OVERLOADED,
                f"too many requests in flight (limit {self.max_inflight})",
                retry_after=self.retry_after,
            )
            return protocol.HTTP_STATUS[ErrorCode.OVERLOADED], err
        try:
            return self._dispatch(body)
        finally:
            self._release_slot()

    def _dispatch(self, body: bytes) -> tuple[int, dict[str, Any]]:
        t0 = perf_counter()
        rtype = "invalid"
        try:
            request = protocol.parse_request(body)
            rtype = type(request).__name__.replace("Request", "").lower()
            with self._engine_lock:
                self.engine.poll()
                response = self._execute(request)
                self._maybe_compact()
            status = 200
        except ProtocolError as exc:
            response = protocol.error_response(exc.code, exc.message)
            status = exc.http_status
        except OutOfOrderSubmit as exc:
            response = protocol.error_response(ErrorCode.OUT_OF_ORDER, str(exc))
            status = protocol.HTTP_STATUS[ErrorCode.OUT_OF_ORDER]
        except DuplicateJob as exc:
            response = protocol.error_response(ErrorCode.CONFLICT, str(exc))
            status = protocol.HTTP_STATUS[ErrorCode.CONFLICT]
        except (EngineError, checkpoint_mod.CheckpointError, OSError) as exc:
            response = protocol.error_response(ErrorCode.INTERNAL, str(exc))
            status = protocol.HTTP_STATUS[ErrorCode.INTERNAL]
        except Exception as exc:
            # The handler thread must outlive any bug in the engine or a
            # policy: surface it as a typed 500, never a dead connection.
            log.exception("unexpected failure handling %s request", rtype)
            response = protocol.error_response(
                ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
            status = protocol.HTTP_STATUS[ErrorCode.INTERNAL]
        elapsed = perf_counter() - t0
        outcome = "ok" if response.get("ok") else response["error"]["code"]
        handles = self._request_metrics.get((rtype, outcome))
        if handles is None:
            handles = self._request_metrics[rtype, outcome] = (
                self.registry.counter(
                    "service_requests_total",
                    "Protocol requests by type and outcome",
                    type=rtype, outcome=outcome,
                ),
                self.registry.histogram(
                    "service_request_seconds",
                    "Wall-clock request handling latency",
                    buckets=LATENCY_BUCKETS, type=rtype,
                ),
            )
        handles[0].inc()
        handles[1].observe(elapsed)
        return status, response

    # -- write-ahead logging ------------------------------------------------
    def _crash(self, point: str) -> None:
        """Scripted crash point (no-op without an injector)."""
        if self.faults is not None:
            self.faults.crash(point)

    def _wal_append(self, req: dict[str, Any], clamp: bool) -> Optional[int]:
        """Durably log one mutating request *before* it is applied."""
        if self.wal is None:
            return None
        self._crash("wal.before_append")
        t0 = perf_counter()
        lsn = self.wal.append(self.engine.sim.now, req, clamp=clamp)
        self._wal_append_seconds.observe(perf_counter() - t0)
        self._wal_appends.inc()
        self._crash("wal.after_append")
        return lsn

    def _apply_logged(self, lsn: Optional[int], apply: Any) -> Any:  # repro-lint: locked  only called from _execute under _engine_lock
        """Apply a WAL-logged mutation, recording the LSN even on failure.

        A failed application (duplicate id, out-of-order submit) fails
        identically on replay, so its LSN still counts as consumed.
        """
        try:
            result = apply()
        finally:
            if lsn is not None:
                self.engine.wal_lsn = lsn
        self._crash("wal.after_apply")
        return result

    def _maybe_compact(self) -> None:  # repro-lint: locked  only called from _dispatch under _engine_lock
        """Compact the WAL once enough records accumulate past base_lsn.

        Runs under the engine lock (the checkpoint must snapshot the
        exact state the retained tail continues from).  A compaction
        *failure* is logged and counted but does not fail the client's
        request — the triggering mutation is already durable and
        applied; only the maintenance step was lost.  Scripted
        :class:`~repro.service.faults.CrashPoint` still propagates.
        """
        if self.wal is None or self.wal_compact_every <= 0:
            return
        retained = self.wal.next_lsn - 1 - self.wal.base_lsn
        if retained < self.wal_compact_every:
            return
        if self.engine.wal_lsn <= self.wal.base_lsn:
            return  # nothing applied past the last compaction point yet
        assert self.compact_path is not None
        try:
            report = self.wal.compact(
                self.engine, self.compact_path, crash=self._crash
            )
        except (WalError, checkpoint_mod.CheckpointError, OSError) as exc:
            self.registry.counter(
                "service_wal_compaction_failures_total",
                "Auto-compaction attempts that failed",
            ).inc()
            log.error("WAL auto-compaction failed: %s", exc)
            return
        self.registry.counter(
            "service_wal_compactions_total", "WAL compactions performed"
        ).inc()
        self.registry.gauge(
            "service_wal_base_lsn",
            "LSN the active WAL tail starts after (compaction point)",
        ).set(self.wal.base_lsn)
        self.registry.counter(
            "service_wal_compacted_records_total",
            "Records moved from the active WAL into archive segments",
        ).inc(report.archived)
        log.info(
            "compacted WAL through LSN %d: %d archived, %d retained, "
            "%d -> %d bytes",
            report.last_lsn, report.archived, report.retained,
            report.bytes_before, report.bytes_after,
        )

    def note_recovery(self, report: RecoveryReport) -> None:
        """Expose a recovery pass's outcome through ``GET /metrics``."""
        self.registry.gauge(
            "service_recovery_wal_records", "WAL records found at recovery"
        ).set(report.wal_records)
        self.registry.gauge(
            "service_recovery_replayed", "WAL records replayed at recovery"
        ).set(report.replayed)
        self.registry.gauge(
            "service_recovery_skipped",
            "WAL records already covered by the checkpoint",
        ).set(report.skipped)
        self.registry.gauge(
            "service_recovery_failed_applications",
            "Replayed records that failed exactly as they originally did",
        ).set(report.failed)
        self.registry.gauge(
            "service_recovery_torn_tail", "1 if recovery dropped a torn WAL tail"
        ).set(1 if report.torn else 0)

    def _execute(self, request: Any) -> dict[str, Any]:
        """Run one validated request against the engine (lock held)."""
        engine = self.engine
        if isinstance(request, protocol.SubmitRequest):
            return self._execute_submit(request)
        if isinstance(request, protocol.BatchRequest):
            # Items run in order under the already-held engine lock, each
            # through the *single-submit* path (own WAL record, own
            # duplicate/idempotency handling) — a batch of N leaves
            # durable state byte-identical to N individual submits.
            # Per-item failures become per-item error envelopes; the
            # frame itself always answers 200.
            results: list[dict[str, Any]] = []
            for payload in request.jobs:
                results.append(self._execute_batch_item(payload))
            self.registry.counter(
                "service_batch_jobs_total", "Jobs carried inside batch frames"
            ).inc(len(request.jobs))
            return protocol.ok_response("batch", results=results)
        if isinstance(request, protocol.QueryRequest):
            job = engine.query(request.job_id)
            if job is None:
                raise ProtocolError(
                    ErrorCode.NOT_FOUND, f"no submitted job with id {request.job_id}"
                )
            return protocol.ok_response("job", job=protocol.job_payload(job))
        if isinstance(request, protocol.StatsRequest):
            return protocol.ok_response("stats", stats=engine.stats())
        if isinstance(request, protocol.TraceRequest):
            try:
                trace = engine.trace(request.job_id)
            except KeyError:
                raise ProtocolError(
                    ErrorCode.NOT_FOUND,
                    f"no decided job with id {request.job_id}",
                ) from None
            return protocol.ok_response("trace", trace=trace)
        if isinstance(request, protocol.AdvanceRequest):
            if getattr(engine.clock, "live", False):
                raise ProtocolError(
                    ErrorCode.INVALID_FIELD,
                    "advance is only valid under a virtual clock",
                )
            lsn = self._wal_append(
                {"v": protocol.PROTOCOL_VERSION, "type": "advance",
                 "to": request.to},
                False,
            )
            events = self._apply_logged(lsn, lambda: engine.advance(request.to))
            return protocol.ok_response("advanced", t=engine.now, events=events)
        if isinstance(request, protocol.DrainRequest):
            lsn = self._wal_append(
                {"v": protocol.PROTOCOL_VERSION, "type": "drain"}, False
            )
            horizon = self._apply_logged(lsn, engine.drain)
            return protocol.ok_response(
                "drained", t=horizon, metrics=engine.metrics().as_dict()
            )
        if isinstance(request, protocol.CheckpointRequest):
            if request.path is not None:
                checkpoint_mod.save(engine, request.path)
                return protocol.ok_response("checkpoint", path=request.path)
            return protocol.ok_response(
                "checkpoint", snapshot=checkpoint_mod.snapshot(engine)
            )
        raise ProtocolError(  # pragma: no cover - parse_request is exhaustive
            ErrorCode.UNKNOWN_TYPE, f"unhandled request {type(request).__name__}"
        )

    def _execute_submit(self, request: protocol.SubmitRequest) -> dict[str, Any]:
        """The single-submit path (engine lock held by the caller)."""
        engine = self.engine
        job = protocol.job_from_payload(
            request.job, default_submit_time=engine.now
        )
        clamp = bool(getattr(engine.clock, "live", False))
        existing = engine.query(job.job_id)
        if existing is not None:
            return self._duplicate_submit(job, existing)
        # Stamp the (possibly auto-assigned) id into the logged payload
        # so recovery rebuilds the job under the identical handle.
        logged = dict(request.job)
        logged.setdefault("id", job.job_id)
        # Mint the trace id *before* logging so the WAL frame carries
        # it and recovery rebuilds the original id (byte-identical
        # recovered traces).  The engine derives the same id itself, so
        # only a client-given one is passed on.
        trace_id = request.trace
        if trace_id is None and engine.telemetry:
            trace_id = engine.peek_trace_id(job.job_id)
        payload = {
            "v": protocol.PROTOCOL_VERSION, "type": "submit", "job": logged,
        }
        if trace_id is not None:
            payload["trace"] = trace_id
        lsn = self._wal_append(payload, clamp)
        decision = self._apply_logged(
            lsn, lambda: engine.submit(
                job, clamp_past=clamp, trace=request.trace, wal_lsn=lsn or 0
            )
        )
        response = protocol.ok_response(
            "decision", decision=decision.as_dict()
        )
        if trace_id is not None:
            response["trace"] = trace_id
        return response

    def _execute_batch_item(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One batch item → the exact envelope a lone submit would get.

        Catches the same per-request failures :meth:`_dispatch` maps to
        error responses, so a bad item (duplicate id, stale submit time,
        invalid field) yields its typed error envelope in place while
        the rest of the frame proceeds.
        """
        try:
            return self._execute_submit(protocol.SubmitRequest(job=payload))
        except ProtocolError as exc:
            return protocol.error_response(exc.code, exc.message)
        except OutOfOrderSubmit as exc:
            return protocol.error_response(ErrorCode.OUT_OF_ORDER, str(exc))
        except DuplicateJob as exc:
            return protocol.error_response(ErrorCode.CONFLICT, str(exc))

    def _duplicate_submit(self, job: Job, existing: Job) -> dict[str, Any]:
        """Resolve a submit whose job id the engine already knows.

        A *retry* of the same submission (identical job parameters) is
        answered idempotently with the originally recorded decision —
        never re-decided, never a blind 409 — which is what lets
        clients retry submits across drops and crashes.  A *different*
        job under a known id is still a hard conflict.
        """
        prior = self.engine.decision_for(job.job_id)
        if prior is not None and (
            existing.runtime == job.runtime
            and existing.estimated_runtime == job.estimated_runtime
            and existing.numproc == job.numproc
            and existing.deadline == job.deadline
            and existing.urgency is job.urgency
            and existing.user == job.user
            # submit_time deliberately not compared: a retry arrives
            # later, and live servers clamp stale times anyway.
        ):
            self.registry.counter(
                "service_submit_duplicates_total",
                "Idempotent submit retries answered from the decision log",
            ).inc()
            return protocol.ok_response(
                "decision", decision=prior.as_dict(), duplicate=True
            )
        raise DuplicateJob(
            f"a different job was already submitted under id {job.job_id}; "
            f"ids are the service's job handle and must be unique"
        )

    def close_wal(self) -> None:
        """Flush and close the WAL so no acked record can be lost."""
        if self.wal is not None and not self.wal.closed:
            self.wal.close()

    # -- read-only side endpoints -------------------------------------------
    def stats_response(self) -> dict[str, Any]:
        with self._engine_lock:
            self.engine.poll()
            return protocol.ok_response("stats", stats=self.engine.stats())

    def health_response(self) -> dict[str, Any]:
        """The ``GET /healthz`` payload: threshold-driven health status.

        ``status`` is ``"ok"`` until the deadline-miss error budget is
        fully burned (``slo.burn_rate > 1``) — then ``"degraded"`` —
        and ``"draining"`` during shutdown (served as HTTP 503 so load
        balancers stop routing).  Every field is derived from engine
        counters and the injected clock, so under a ``VirtualClock``
        the payload is deterministic.
        """
        with self._engine_lock:
            self.engine.poll()
            engine = self.engine
            metrics = compute_metrics(engine.rms.ledger)
            completed, missed = metrics.completed, metrics.completed_late
            miss_ratio = missed / completed if completed else 0.0
            burn_rate = miss_ratio / self.slo_deadline_miss_objective
            appended = self.wal.next_lsn - 1 if self.wal is not None else 0
            applied = engine.wal_lsn
            with self._inflight_lock:
                inflight = self._inflight
                shed = self._shed_total
            status = "ok"
            if burn_rate > 1.0:
                status = "degraded"
            if self.draining:
                status = "draining"
            return {
                "ok": status != "draining",
                "status": status,
                "t": engine.now,
                "policy": engine.policy.name,
                "slo": {
                    "deadline_miss_objective": self.slo_deadline_miss_objective,
                    "deadline_miss_ratio": miss_ratio,
                    "burn_rate": burn_rate,
                },
                "wal": {
                    "enabled": self.wal is not None,
                    "appended_lsn": appended,
                    "applied_lsn": applied,
                    "lag": max(0, appended - applied),
                    "base_lsn": (
                        self.wal.base_lsn if self.wal is not None else 0
                    ),
                    "compactions": (
                        self.wal.compactions if self.wal is not None else 0
                    ),
                },
                "backpressure": {
                    "inflight": inflight,
                    "max_inflight": self.max_inflight,
                    "shed_total": shed,
                    "draining": self.draining,
                },
            }

    def _scrape_engine_gauges(self) -> None:
        """Refresh scrape-time gauges derived from engine and WAL state.

        The cumulative request counters update inline; everything that
        lives *inside* the engine (kernel trace accounting, admission
        cache counters, windowed telemetry) or the WAL (its LSN, byte
        and fsync counts) is sampled here, under the engine lock, each
        time ``/metrics`` is rendered.
        """
        with self._engine_lock:
            engine = self.engine
            if self.wal is not None:
                for name, help_text, value in (
                    ("service_wal_last_lsn", "Highest LSN appended to the WAL",
                     self.wal.next_lsn - 1),
                    ("service_wal_bytes_written", "Bytes appended to the WAL",
                     self.wal.bytes_written),
                    ("service_wal_fsyncs", "fsync calls issued by the WAL",
                     self.wal.syncs),
                    ("service_wal_applied_lsn", "Highest LSN applied to the engine",
                     engine.wal_lsn),
                ):
                    self.registry.gauge(name, help_text).set(value)
            for key, value in sorted(engine.policy.cache_stats.items()):
                self.registry.gauge(
                    "engine_cache_stat",
                    "Admission fast-path counters (see docs/PERFORMANCE.md)",
                    stat=key,
                ).set(value)
            if engine.window is not None:
                snap = engine.window.snapshot(engine.now)
                for name, pol in snap["policies"].items():
                    self.registry.gauge(
                        "engine_window_submitted",
                        "Jobs submitted inside the telemetry window",
                        policy=name,
                    ).set(pol["submitted"])
                    self.registry.gauge(
                        "engine_window_rejected",
                        "Jobs rejected inside the telemetry window",
                        policy=name,
                    ).set(pol["rejected"])
                    self.registry.gauge(
                        "engine_window_loss_ratio",
                        "Windowed rejected/submitted ratio per policy",
                        policy=name,
                    ).set(pol["loss_ratio"])

    def prometheus_text(self) -> str:
        from repro.obs.exporters import prometheus_text

        self._scrape_engine_gauges()
        return prometheus_text(self.registry)


class _Handler(socketserver.StreamRequestHandler):
    """Maps HTTP to the service; all logic lives in :class:`AdmissionService`.

    One instance serves one connection: a loop of
    :func:`~repro.service.http11.read_request` /
    :func:`~repro.service.http11.encode_response` until either side
    ends it.
    """

    # Every response is one ``sendall`` of head + body; with Nagle off
    # it leaves at once instead of waiting for the peer's ACK.
    disable_nagle_algorithm = True

    @property
    def service(self) -> AdmissionService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ----------------------------------------------------------
    def handle(self) -> None:
        reader = http11.Reader(self.connection.recv)
        self.path = "-"
        self.close_connection = False
        try:
            while not self.close_connection:
                try:
                    request = http11.read_request(reader)
                    if request is None:
                        return
                    self.path = request.target
                    self.close_connection = not request.keep_alive
                    if request.method == "POST":
                        self.do_POST(request.content_length, reader)
                    else:
                        if request.content_length:
                            # Nobody reads a GET's body, so it must not
                            # be taken for the next request.
                            self.close_connection = True
                        self.do_GET()
                except http11.HttpError as exc:
                    # Where the next request starts is unknown now.
                    self.close_connection = True
                    self._refuse(exc.status, exc.code, exc.message)
        except OSError as exc:
            log.debug("%s hung up mid-exchange: %s", self.client_address, exc)

    def _send(
        self, status: int, body: bytes, content_type: str,
        retry_after: Optional[float] = None,
    ) -> None:
        if self.service.draining:
            # Tells keep-alive clients to drop their pooled socket (and
            # ends this handler thread) instead of parking on a server
            # that is going away.
            self.close_connection = True
        self.connection.sendall(http11.encode_response(
            status, body, content_type, retry_after, close=self.close_connection
        ))
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s %s -> %d", self.client_address, self.path, status)

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        self._send(
            status, protocol.encode(payload), "application/json; charset=utf-8",
            payload.get("error", {}).get("retry_after"),
        )

    def _refuse(self, status: int, code: str, message: str) -> None:
        self._send_json(status, protocol.error_response(code, message))

    # -- verbs -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if self.path == "/healthz":
            health = self.service.health_response()
            self._send_json(200 if health["ok"] else 503, health)
        elif self.path == "/v1/stats":
            self._send_json(200, self.service.stats_response())
        elif self.path == "/metrics":
            self._send(200, self.service.prometheus_text().encode("utf-8"),
                       "text/plain; version=0.0.4; charset=utf-8")
        else:
            self._refuse(404, ErrorCode.NOT_FOUND, f"no such endpoint {self.path!r}")

    def do_POST(  # noqa: N802 (stdlib naming)
        self, length: Optional[int], reader: http11.Reader
    ) -> None:
        limit = self.service.max_request_bytes
        refusal: Optional[tuple[int, str, str]] = None
        if self.path != "/v1/rpc":
            refusal = 404, ErrorCode.NOT_FOUND, f"no such endpoint {self.path!r}"
        elif length is None:
            refusal = 411, ErrorCode.TOO_LARGE, "Content-Length header is required"
        elif length > limit:
            refusal = (
                413, ErrorCode.TOO_LARGE,
                f"request of {length} bytes exceeds the {limit}-byte limit",
            )
        if refusal is not None:
            # Refused before the body is read, so whatever follows on
            # this connection is not known to be a request.
            self.close_connection = True
            self._refuse(*refusal)
            return
        body = reader.read(length)
        try:
            status, payload = self.service.handle(body)
        except DropRequest:
            # Injected network loss: vanish without a response, exactly
            # what a dropped packet looks like from the client's side.
            self.close_connection = True
            return
        self._send_json(status, payload)


class _TrackingServer(socketserver.ThreadingTCPServer):
    """A ``ThreadingTCPServer`` that remembers its handler threads.

    socketserver does not track daemon handler threads at all (and
    ``server_close`` joins nothing for them), so without this a
    graceful stop could close the WAL and snapshot the engine while a
    handler is still mid-mutation.  Tracking them (and their sockets)
    lets :meth:`stop` wake handlers parked on idle keep-alive
    connections, join with a bounded timeout and *report* a wedged
    handler instead of silently racing it.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Open connection -> the thread serving it.
        self._handlers: dict[socket.socket, threading.Thread] = {}
        self._handler_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"repro-handler-{client_address}",
            daemon=True,
        )
        with self._handler_lock:
            self._handlers[request] = thread
        thread.start()

    def shutdown_request(self, request: Any) -> None:
        # Runs in the handler thread once its last response is written.
        with self._handler_lock:
            self._handlers.pop(request, None)
        super().shutdown_request(request)

    def alive_handlers(self) -> list[threading.Thread]:
        with self._handler_lock:
            return [t for t in self._handlers.values() if t.is_alive()]

    def stop(self, accept_thread: Optional[threading.Thread]) -> bool:
        """Stop accepting and wait (bounded) for every handler to leave.

        Open connections are half-closed for reading: a handler parked
        in ``readline()`` on an idle keep-alive connection sees EOF and
        exits, while one that already read its request still writes its
        answer.  Returns ``False`` — after logging who — if the accept
        loop or a handler is still alive 5 s later.
        """
        self.shutdown()
        self.server_close()
        with self._handler_lock:
            for request in self._handlers:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already hung up
        wedged = []
        if accept_thread is not None:
            accept_thread.join(timeout=5.0)
            if accept_thread.is_alive():
                wedged.append(accept_thread.name)
        deadline = monotonic() + 5.0
        for worker in self.alive_handlers():
            worker.join(timeout=max(0.0, deadline - monotonic()))
            if worker.is_alive():
                wedged.append(worker.name)
        if wedged:
            log.error(
                "%d thread(s) still alive 5s after shutdown (%s); a request "
                "handler is wedged — its work may be lost",
                len(wedged), ", ".join(wedged),
            )
        return not wedged


_F = TypeVar("_F", bound="HttpFrontend")


class HttpFrontend:
    """Bind / serve / stop lifecycle of one service behind :class:`_Handler`.

    ``service`` is anything with the handler's read surface
    (:class:`AdmissionService`, or the shard router, which duck-types
    it).  ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  :meth:`start` runs the accept loop in a daemon
    thread (tests, embedded use); :meth:`serve_forever` blocks.
    """

    label = "admission service"

    def __init__(self, service: Any, host: str, port: int) -> None:
        self._httpd = _TrackingServer((host, port), _Handler)
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self: _F) -> _F:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        log.info("%s listening on %s", self.label, self.url)
        return self

    def serve_forever(self) -> None:
        log.info("%s listening on %s", self.label, self.url)
        self._httpd.serve_forever()

    def stop(self) -> bool:
        """Refuse new work, stop accepting, join the handlers (bounded)."""
        self._httpd.service.draining = True  # type: ignore[attr-defined]
        return self._httpd.stop(self._thread)


class ServiceServer(HttpFrontend):
    """The admission service's HTTP front-end (``repro serve``).

    :meth:`stop` is graceful: new requests are refused with
    ``shutting_down`` while the accept loop winds down, and an optional
    exit checkpoint is written.
    """

    def __init__(
        self,
        service: AdmissionService,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_on_exit: Optional[str] = None,
    ) -> None:
        super().__init__(service, host, port)
        self.service = service
        self.checkpoint_on_exit = checkpoint_on_exit

    def stop(self) -> bool:
        """Drain, stop the accept loop, and close the WAL.

        Returns ``True`` on a clean shutdown.  Any thread — the accept
        loop or a request handler — still alive after the 5 s join is
        *reported* (logged and reflected in the return value) rather
        than silently abandoned, so operators and tests can tell a
        wedged handler from a clean exit.
        """
        clean = super().stop()
        # Flush/close the WAL only after the accept loop and handlers
        # are down, so no acked record can race the close and be lost
        # on graceful exit.
        self.service.close_wal()
        if self.checkpoint_on_exit is not None:
            # The engine lock keeps a straggling (wedged) handler from
            # mutating state mid-snapshot; bounded so a handler wedged
            # *inside* the lock cannot hang shutdown forever.
            if self.service._engine_lock.acquire(timeout=5.0):
                try:
                    checkpoint_mod.save(
                        self.service.engine, self.checkpoint_on_exit
                    )
                    log.info(
                        "wrote exit checkpoint to %s", self.checkpoint_on_exit
                    )
                finally:
                    self.service._engine_lock.release()
            else:
                clean = False
                log.error(
                    "could not acquire the engine lock within 5s; skipping "
                    "the exit checkpoint rather than snapshotting "
                    "mid-mutation state",
                )
        return clean


__all__ = ["AdmissionService", "HttpFrontend", "LATENCY_BUCKETS", "ServiceServer"]
