"""Versioned JSON request/response protocol of the admission service.

Every request is one JSON object carrying the protocol version and a
request type::

    {"v": 1, "type": "submit", "job": {"submit_time": 10.0,
     "runtime": 120.0, "estimated_runtime": 180.0, "numproc": 4,
     "deadline": 600.0}}

and every response echoes the version with an ``ok`` flag::

    {"v": 1, "ok": true, "type": "decision", "decision": {...}}
    {"v": 1, "ok": false, "error": {"code": "out_of_order", "message": ...}}

Validation is **strict**: unknown request types, unknown fields, wrong
JSON types and out-of-range values are all rejected with a typed
:class:`ProtocolError` whose ``code`` is machine-checkable (and whose
``http_status`` the HTTP server reuses).  Strictness is what lets the
schema version actually mean something — a v2 field sent to a v1
server fails loudly instead of being silently dropped.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from repro.cluster.job import Job, UrgencyClass

#: Protocol schema version this module speaks.
PROTOCOL_VERSION = 1

#: Request types a v1 server understands.
REQUEST_TYPES = (
    "submit", "batch", "query", "stats", "advance", "drain", "checkpoint", "trace"
)

#: Upper bound on jobs in one batch frame.  The HTTP body-size limit
#: already bounds the bytes; this bounds the per-request work so one
#: frame cannot monopolise the engine lock indefinitely.
MAX_BATCH_JOBS = 4096


class ErrorCode:
    """Machine-checkable error codes carried in ``error.code``."""

    BAD_JSON = "bad_json"                  # body is not a JSON object
    BAD_VERSION = "bad_version"            # missing/unsupported "v"
    UNKNOWN_TYPE = "unknown_type"          # "type" not in REQUEST_TYPES
    INVALID_FIELD = "invalid_field"        # wrong type / range / unknown key
    OUT_OF_ORDER = "out_of_order"          # submit_time before the clock
    CONFLICT = "conflict"                  # job id already submitted
    NOT_FOUND = "not_found"                # query for an unknown job
    TOO_LARGE = "too_large"                # body over the size limit
    OVERLOADED = "overloaded"              # queue-depth backpressure
    SHUTTING_DOWN = "shutting_down"        # server is draining
    INTERNAL = "internal"                  # unexpected server-side failure
    INJECTED = "injected"                  # scripted fault-injection failure
    UNAVAILABLE = "unavailable"            # client-side: transport failure
    #                                        (connection refused/reset/timeout);
    #                                        synthesised by clients, never sent
    #                                        by a server
    PARKING_FULL = "parking_full"          # router-side: the owning shard is
    #                                        down and its failover parking lot
    #                                        is at capacity


#: HTTP status the server maps each code onto.
HTTP_STATUS = {
    ErrorCode.BAD_JSON: 400,
    ErrorCode.BAD_VERSION: 400,
    ErrorCode.UNKNOWN_TYPE: 400,
    ErrorCode.INVALID_FIELD: 400,
    ErrorCode.OUT_OF_ORDER: 409,
    ErrorCode.CONFLICT: 409,
    ErrorCode.NOT_FOUND: 404,
    ErrorCode.TOO_LARGE: 413,
    ErrorCode.OVERLOADED: 503,
    ErrorCode.SHUTTING_DOWN: 503,
    ErrorCode.INTERNAL: 500,
    ErrorCode.INJECTED: 500,
    ErrorCode.PARKING_FULL: 503,
}

#: Error codes a client may safely retry (with backoff).  4xx codes are
#: deliberate refusals and retrying them verbatim cannot succeed.
RETRYABLE_CODES = frozenset({
    ErrorCode.OVERLOADED, ErrorCode.SHUTTING_DOWN, ErrorCode.INTERNAL,
    ErrorCode.INJECTED, ErrorCode.UNAVAILABLE, ErrorCode.PARKING_FULL,
})


class ProtocolError(Exception):
    """A request the protocol refuses, with a typed code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def http_status(self) -> int:
        return HTTP_STATUS.get(self.code, 400)


# -- typed requests -----------------------------------------------------------

class SubmitRequest(NamedTuple):
    """Admit one job (``job`` follows the :func:`job_from_payload` schema).

    ``trace`` optionally pins the deterministic trace id for this
    submission.  Live clients normally omit it (the engine mints one);
    WAL recovery sends the id the original run logged so recovered
    traces stay byte-identical.

    A named tuple rather than a frozen dataclass: it is built once per
    submit on every path (server, shard, replay), and a frozen
    dataclass pays an ``object.__setattr__`` per field to stay
    immutable.
    """

    job: dict[str, Any]
    trace: Optional[str] = None


@dataclass(frozen=True)
class BatchRequest:
    """Admit several jobs in one round trip.

    ``jobs`` is an ordered tuple of job payloads, each following the
    exact :func:`job_from_payload` schema of ``submit.job``.  The server
    executes the items **in order under one engine-lock acquisition**,
    appending one WAL record per item — so a batch of N is byte-identical
    in durable state to N individual submits, and the response carries
    one full per-item envelope per job (a decision, or a per-item typed
    error; one bad item never voids its siblings).
    """

    jobs: tuple[dict[str, Any], ...]


@dataclass(frozen=True)
class QueryRequest:
    """Look up one submitted job by id."""

    job_id: int


@dataclass(frozen=True)
class StatsRequest:
    """Engine counters snapshot."""


@dataclass(frozen=True)
class AdvanceRequest:
    """Drive the virtual clock to ``to`` (simulated seconds)."""

    to: float


@dataclass(frozen=True)
class DrainRequest:
    """Run every pending event; respond with the final horizon."""


@dataclass(frozen=True)
class CheckpointRequest:
    """Snapshot engine state — inline, or to ``path`` on the server."""

    path: Optional[str] = None


@dataclass(frozen=True)
class TraceRequest:
    """Reconstruct the lifecycle span tree of one decided job."""

    job_id: int


_REQUEST_CLASSES = {
    "submit": SubmitRequest,
    "batch": BatchRequest,
    "query": QueryRequest,
    "stats": StatsRequest,
    "advance": AdvanceRequest,
    "drain": DrainRequest,
    "checkpoint": CheckpointRequest,
    "trace": TraceRequest,
}

Request = Any  # union of the request classes above


# -- JSON decoding ------------------------------------------------------------

#: The decoder ``json.loads`` delegates to, called without the per-call
#: wrapper (type dispatch, BOM probe, keyword checks) around it.
_decode = json.JSONDecoder().decode


def decode_json(text: str) -> Any:
    """``json.loads(text)`` for a ``str``: same result, same exceptions.

    The BOM refusal ``json.loads`` makes up front is made here only
    after the decoder has failed, which it always does on a leading
    U+FEFF (not JSON whitespace), so a well-formed body never pays for
    it.  The WAL reader decodes every record through this too.
    """
    try:
        return _decode(text)
    except json.JSONDecodeError:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            ) from None
        raise


# -- field validation helpers -------------------------------------------------

def _require_mapping(obj: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(obj, Mapping):
        raise ProtocolError(
            ErrorCode.BAD_JSON, f"{what} must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def _no_unknown_keys(obj: Mapping[str, Any], allowed: frozenset, what: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ProtocolError(
            ErrorCode.INVALID_FIELD,
            f"unknown {what} field(s): {', '.join(unknown)}",
        )


def _number(obj: Mapping[str, Any], key: str, what: str, *, required: bool = True,
            minimum: Optional[float] = None, exclusive: bool = False) -> Optional[float]:
    if key not in obj:
        if required:
            raise ProtocolError(ErrorCode.INVALID_FIELD, f"{what}.{key} is required")
        return None
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            ErrorCode.INVALID_FIELD,
            f"{what}.{key} must be a number, got {type(value).__name__}",
        )
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ProtocolError(ErrorCode.INVALID_FIELD, f"{what}.{key} must be finite") from None
    if not math.isfinite(value):
        raise ProtocolError(ErrorCode.INVALID_FIELD, f"{what}.{key} must be finite")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ProtocolError(
                ErrorCode.INVALID_FIELD, f"{what}.{key} must be > {minimum:g}, got {value:g}"
            )
        if not exclusive and value < minimum:
            raise ProtocolError(
                ErrorCode.INVALID_FIELD, f"{what}.{key} must be >= {minimum:g}, got {value:g}"
            )
    return value


def _integer(obj: Mapping[str, Any], key: str, what: str, *, required: bool = True,
             minimum: Optional[int] = None) -> Optional[int]:
    if key not in obj:
        if required:
            raise ProtocolError(ErrorCode.INVALID_FIELD, f"{what}.{key} is required")
        return None
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            ErrorCode.INVALID_FIELD,
            f"{what}.{key} must be an integer, got {type(value).__name__}",
        )
    if minimum is not None and value < minimum:
        raise ProtocolError(
            ErrorCode.INVALID_FIELD, f"{what}.{key} must be >= {minimum}, got {value}"
        )
    return value


# -- job payloads -------------------------------------------------------------

_JOB_FIELDS = frozenset(
    {"id", "submit_time", "runtime", "estimated_runtime", "numproc",
     "deadline", "urgency", "user"}
)

_INF = math.inf


def job_from_payload(payload: Any, default_submit_time: Optional[float] = None) -> Job:
    """Build a :class:`~repro.cluster.job.Job` from a validated ``job`` object.

    ``runtime`` is optional and defaults to ``estimated_runtime`` — a
    live client does not know the actual runtime; the simulation-backed
    service still needs one, and trusting the estimate is the neutral
    choice.  ``submit_time`` defaults to ``default_submit_time`` (the
    live server passes its current clock).
    """
    # Each check first tries an exact fast accept: a value it takes is
    # one the general helper below it would also take, unchanged.  Any
    # other value (missing, int-for-float, bool, NaN, ±inf, out of
    # range) falls through to that helper, which returns or raises
    # exactly as it always has — checked in the order it always was.
    if type(payload) is not dict:
        payload = _require_mapping(payload, "job")
    if not payload.keys() <= _JOB_FIELDS:
        _no_unknown_keys(payload, _JOB_FIELDS, "job")
    get = payload.get
    est = get("estimated_runtime")
    if not (type(est) is float and 0.0 < est < _INF):
        est = _number(payload, "estimated_runtime", "job", minimum=0.0, exclusive=True)
    runtime = get("runtime")
    if not (type(runtime) is float and 0.0 < runtime < _INF):
        runtime = _number(payload, "runtime", "job", required=False,
                          minimum=0.0, exclusive=True)
    deadline = get("deadline")
    if not (type(deadline) is float and 0.0 < deadline < _INF):
        deadline = _number(payload, "deadline", "job", minimum=0.0, exclusive=True)
    numproc = get("numproc")
    if not (type(numproc) is int and numproc >= 1):
        numproc = _integer(payload, "numproc", "job", required=False, minimum=1)
    submit_time = get("submit_time")
    if not (type(submit_time) is float and 0.0 <= submit_time < _INF):
        submit_time = _number(payload, "submit_time", "job", required=False, minimum=0.0)
    if submit_time is None:
        if default_submit_time is None:
            raise ProtocolError(ErrorCode.INVALID_FIELD, "job.submit_time is required")
        submit_time = default_submit_time
    job_id = get("id")
    if not (type(job_id) is int and job_id >= 1):
        job_id = _integer(payload, "id", "job", required=False, minimum=1)
    urgency = get("urgency", "low")
    if urgency not in ("low", "high"):
        raise ProtocolError(
            ErrorCode.INVALID_FIELD, f"job.urgency must be 'low' or 'high', got {urgency!r}"
        )
    user = get("user")
    if user is not None and not isinstance(user, str):
        raise ProtocolError(ErrorCode.INVALID_FIELD, "job.user must be a string")
    try:
        return Job(
            runtime=runtime if runtime is not None else est,
            estimated_runtime=est,
            numproc=numproc if numproc is not None else 1,
            deadline=deadline,
            submit_time=submit_time,
            urgency=UrgencyClass.HIGH if urgency == "high" else UrgencyClass.LOW,
            user=user,
            job_id=job_id,
        )
    except ValueError as exc:  # Job's own validation (defence in depth)
        raise ProtocolError(ErrorCode.INVALID_FIELD, str(exc)) from exc


def job_payload(job: Job) -> dict[str, Any]:
    """The JSON view of a submitted job (``query`` responses)."""
    out: dict[str, Any] = {
        "id": job.job_id,
        "state": job.state.value,
        "submit_time": job.submit_time,
        "estimated_runtime": job.estimated_runtime,
        "numproc": job.numproc,
        "deadline": job.deadline,
        "urgency": job.urgency.value,
    }
    if job.user is not None:
        out["user"] = job.user
    if job.start_time is not None:
        out["start_time"] = job.start_time
    if job.finish_time is not None:
        out["finish_time"] = job.finish_time
        out["deadline_met"] = bool(job.deadline_met)
    if job.reject_reason:
        out["reject_reason"] = job.reject_reason
    return out


# -- request parsing ----------------------------------------------------------

_TOP_FIELDS = {
    "submit": frozenset({"v", "type", "job", "trace"}),
    "batch": frozenset({"v", "type", "jobs"}),
    "query": frozenset({"v", "type", "job"}),
    "stats": frozenset({"v", "type"}),
    "advance": frozenset({"v", "type", "to"}),
    "drain": frozenset({"v", "type"}),
    "checkpoint": frozenset({"v", "type", "path"}),
    "trace": frozenset({"v", "type", "job"}),
}


def parse_request(data: Any) -> Request:
    """Validate a decoded JSON body into a typed request.

    Accepts the raw ``bytes``/``str`` body or an already-decoded
    object; raises :class:`ProtocolError` on any violation.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(ErrorCode.BAD_JSON, f"body is not UTF-8: {exc}") from exc
    if isinstance(data, str):
        try:
            data = decode_json(data)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, the plain ValueError int() raises for an
            # integer literal past the interpreter's digit limit, and the
            # RecursionError of a body nested past the recursion limit.
            raise ProtocolError(ErrorCode.BAD_JSON, f"invalid JSON: {exc}") from exc
    obj = data if type(data) is dict else _require_mapping(data, "request")

    version = obj.get("v")
    if version is None:
        raise ProtocolError(ErrorCode.BAD_VERSION, "missing protocol version field 'v'")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.BAD_VERSION,
            f"unsupported protocol version {version!r} (this server speaks "
            f"v{PROTOCOL_VERSION})",
        )

    req_type = obj.get("type")
    # An array or object is unhashable; every type name is a str anyway.
    if type(req_type) is not str or req_type not in _REQUEST_CLASSES:
        raise ProtocolError(
            ErrorCode.UNKNOWN_TYPE,
            f"unknown request type {req_type!r}; expected one of "
            f"{', '.join(REQUEST_TYPES)}",
        )
    if not obj.keys() <= _TOP_FIELDS[req_type]:
        _no_unknown_keys(obj, _TOP_FIELDS[req_type], "request")

    if req_type == "submit":
        if "job" not in obj:
            raise ProtocolError(ErrorCode.INVALID_FIELD, "request.job is required")
        trace = obj.get("trace")
        if trace is not None and not isinstance(trace, str):
            raise ProtocolError(ErrorCode.INVALID_FIELD, "request.trace must be a string")
        job = obj["job"]
        return SubmitRequest(
            dict(job if type(job) is dict else _require_mapping(job, "job")), trace
        )
    if req_type == "batch":
        jobs = obj.get("jobs")
        if not isinstance(jobs, list):
            raise ProtocolError(
                ErrorCode.INVALID_FIELD,
                "request.jobs must be an array of job objects",
            )
        if not jobs:
            raise ProtocolError(ErrorCode.INVALID_FIELD, "request.jobs must not be empty")
        if len(jobs) > MAX_BATCH_JOBS:
            raise ProtocolError(
                ErrorCode.TOO_LARGE,
                f"batch of {len(jobs)} jobs exceeds the limit of {MAX_BATCH_JOBS}",
            )
        return BatchRequest(
            jobs=tuple(
                dict(_require_mapping(item, f"jobs[{i}]")) for i, item in enumerate(jobs)
            )
        )
    if req_type == "query":
        job_id = _integer(obj, "job", "request", minimum=1)
        assert job_id is not None
        return QueryRequest(job_id=job_id)
    if req_type == "trace":
        job_id = _integer(obj, "job", "request", minimum=1)
        assert job_id is not None
        return TraceRequest(job_id=job_id)
    if req_type == "advance":
        to = _number(obj, "to", "request", minimum=0.0)
        assert to is not None
        return AdvanceRequest(to=to)
    if req_type == "checkpoint":
        path = obj.get("path")
        if path is not None and not isinstance(path, str):
            raise ProtocolError(ErrorCode.INVALID_FIELD, "request.path must be a string")
        return CheckpointRequest(path=path)
    if req_type == "stats":
        return StatsRequest()
    return DrainRequest()


# -- response construction ----------------------------------------------------

def ok_response(rtype: str, **payload: Any) -> dict[str, Any]:
    """A successful response envelope."""
    return {"v": PROTOCOL_VERSION, "ok": True, "type": rtype, **payload}


def error_response(
    code: str, message: str, retry_after: Optional[float] = None
) -> dict[str, Any]:
    """A failure response envelope with a typed code.

    ``retry_after`` (seconds) rides inside the error object so JSON
    clients see the same backoff hint the HTTP ``Retry-After`` header
    carries.
    """
    error: dict[str, Any] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "error": error,
    }


def encode(response: dict[str, Any]) -> bytes:
    """Canonical wire form: sorted keys, compact separators, UTF-8."""
    return json.dumps(
        response, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        allow_nan=False,
    ).encode("utf-8")


def decode_response(status: int, raw: bytes) -> Optional[dict[str, Any]]:
    """The response object a peer sent, as every client must read it.

    A non-protocol body under an error status (a proxy's or
    ``http.server``'s own error page) becomes a typed ``internal``
    error; under a success status it is a truncated or foreign response
    and the result is ``None`` — callers report it as a transport fault.
    """
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = None
    if isinstance(payload, dict):
        return payload
    if status >= 400:
        return error_response(
            ErrorCode.INTERNAL,
            raw.decode("utf-8", errors="replace") or f"HTTP {status}",
        )
    return None


__all__ = [
    "AdvanceRequest",
    "BatchRequest",
    "CheckpointRequest",
    "DrainRequest",
    "ErrorCode",
    "MAX_BATCH_JOBS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryRequest",
    "REQUEST_TYPES",
    "RETRYABLE_CODES",
    "StatsRequest",
    "SubmitRequest",
    "TraceRequest",
    "decode_json",
    "decode_response",
    "encode",
    "error_response",
    "job_from_payload",
    "job_payload",
    "ok_response",
    "parse_request",
]
