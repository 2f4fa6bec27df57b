"""Property test: the job validator against a verbatim copy of its slow form.

``job_from_payload`` and ``parse_request`` accept the common case
through exact fast tests (``type(v) is float and 0.0 < v < inf`` and
the like) before the general helpers run.  The claim is that this
changes nothing: for every input, both build the same ``Job`` or the
same request, or raise the same ``(code, message)``.  The witness is
the validator as it stood before the fast accepts, copied below
verbatim, and hypothesis-generated payloads aimed at the edges: missing
and unknown keys, bools, ints for floats, ``-0.0``, ``0``, NaN, ±inf,
integers past the float range, strings and containers.

Four differences are deliberate, and the property names them:
- an integer past the float range used to escape as ``OverflowError``
  and is now ``invalid_field``;
- an integer literal past the interpreter's digit limit used to escape
  as a plain ``ValueError`` and is now ``bad_json``;
- an unhashable ``type`` (an array or an object) used to escape as
  ``TypeError`` and is now ``unknown_type``;
- a body nested past the recursion limit used to escape as
  ``RecursionError`` and is now ``bad_json``.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from types import MappingProxyType
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import Job, UrgencyClass
from repro.service import protocol
from repro.service.protocol import (
    MAX_BATCH_JOBS,
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    AdvanceRequest,
    BatchRequest,
    CheckpointRequest,
    DrainRequest,
    ErrorCode,
    ProtocolError,
    QueryRequest,
    StatsRequest,
    SubmitRequest,
    TraceRequest,
)
from tests.test_service.test_server import DEEP_ARRAY, DEEP_JOB

# -- the reference: the validator before its fast accepts, verbatim ----------

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
    value = float(value)
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


_JOB_FIELDS = frozenset(
    {"id", "submit_time", "runtime", "estimated_runtime", "numproc",
     "deadline", "urgency", "user"}
)


def reference_job_from_payload(payload: Any, default_submit_time: Optional[float] = None) -> Job:
    payload = _require_mapping(payload, "job")
    _no_unknown_keys(payload, _JOB_FIELDS, "job")
    est = _number(payload, "estimated_runtime", "job", minimum=0.0, exclusive=True)
    runtime = _number(payload, "runtime", "job", required=False,
                      minimum=0.0, exclusive=True)
    deadline = _number(payload, "deadline", "job", minimum=0.0, exclusive=True)
    numproc = _integer(payload, "numproc", "job", required=False, minimum=1)
    submit_time = _number(payload, "submit_time", "job", required=False, minimum=0.0)
    if submit_time is None:
        if default_submit_time is None:
            raise ProtocolError(ErrorCode.INVALID_FIELD, "job.submit_time is required")
        submit_time = default_submit_time
    job_id = _integer(payload, "id", "job", required=False, minimum=1)
    urgency = payload.get("urgency", "low")
    if urgency not in ("low", "high"):
        raise ProtocolError(
            ErrorCode.INVALID_FIELD, f"job.urgency must be 'low' or 'high', got {urgency!r}"
        )
    user = payload.get("user")
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


def reference_parse_request(data: Any) -> Any:
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(ErrorCode.BAD_JSON, f"body is not UTF-8: {exc}") from exc
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ProtocolError(ErrorCode.BAD_JSON, f"invalid JSON: {exc}") from exc
    obj = _require_mapping(data, "request")

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
    if req_type not in _REQUEST_CLASSES:
        raise ProtocolError(
            ErrorCode.UNKNOWN_TYPE,
            f"unknown request type {req_type!r}; expected one of "
            f"{', '.join(REQUEST_TYPES)}",
        )
    _no_unknown_keys(obj, _TOP_FIELDS[req_type], "request")

    if req_type == "submit":
        if "job" not in obj:
            raise ProtocolError(ErrorCode.INVALID_FIELD, "request.job is required")
        trace = obj.get("trace")
        if trace is not None and not isinstance(trace, str):
            raise ProtocolError(ErrorCode.INVALID_FIELD, "request.trace must be a string")
        return SubmitRequest(
            job=dict(_require_mapping(obj["job"], "job")), trace=trace
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


# -- outcomes -----------------------------------------------------------------

def job_view(job: Job, payload: Any) -> tuple:
    """Every field of a built job; floats by ``repr`` so ``-0.0`` counts."""
    explicit_id = isinstance(payload, Mapping) and "id" in payload
    return (
        job.job_id if explicit_id else "auto",
        repr(job.submit_time), repr(job.runtime), repr(job.estimated_runtime),
        job.numproc, repr(job.deadline), job.urgency, job.user, job.state,
    )


def outcome(fn: Any, data: Any, *args: Any) -> tuple:
    try:
        result = fn(data, *args)
    except ProtocolError as exc:
        return ("refused", exc.code, exc.message)
    except Exception as exc:  # the two escapes the reference is known for
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(result, Job):
        return ("built", job_view(result, data))
    return ("built", type(result).__name__, repr(result))


def assert_same(new: tuple, old: tuple) -> None:
    """``new`` equals ``old``, except where ``old`` is a fixed escape."""
    if old[:2] == ("raised", "OverflowError"):
        assert new[:2] == ("refused", ErrorCode.INVALID_FIELD), (new, old)
        assert new[2].endswith(" must be finite"), new
    elif old[:2] == ("raised", "ValueError") and "digits" in old[2]:
        assert new == ("refused", ErrorCode.BAD_JSON, f"invalid JSON: {old[2]}")
    elif old[:2] == ("raised", "TypeError") and "unhashable" in old[2]:
        assert new[:2] == ("refused", ErrorCode.UNKNOWN_TYPE), (new, old)
        assert new[2].startswith("unknown request type "), new
    elif old[:2] == ("raised", "RecursionError"):
        assert new == ("refused", ErrorCode.BAD_JSON, f"invalid JSON: {old[2]}")
    else:
        assert new == old


def check_job(payload: Any, default_submit_time: Optional[float]) -> None:
    assert_same(
        outcome(protocol.job_from_payload, payload, default_submit_time),
        outcome(reference_job_from_payload, payload, default_submit_time),
    )


def check_request(data: Any) -> None:
    new = outcome(protocol.parse_request, data)
    assert_same(new, outcome(reference_parse_request, data))
    if new[:2] == ("built", "SubmitRequest"):
        # The replay path: the parsed job under the record's clock.
        check_job(protocol.parse_request(data).job, 5.0)


# -- strategies ---------------------------------------------------------------

HUGE = 10 ** 400  # past the float range

#: Values at or across every boundary a fast accept tests.
EDGES = [
    0.0, -0.0, 5e-324, 1.0, 1e300, math.nan, math.inf, -math.inf, -1.0,
    0, 1, -1, 2, 2 ** 63, HUGE, -HUGE, True, False, None,
    "1.0", "low", "high", "", [], {}, [1.0],
]

#: A value each job field accepts.
VALID = {
    "id": st.integers(min_value=1, max_value=2 ** 40),
    "submit_time": st.floats(min_value=0.0, max_value=1e7),
    "runtime": st.floats(min_value=1e-9, max_value=1e9),
    "estimated_runtime": st.floats(min_value=1e-9, max_value=1e9),
    "numproc": st.integers(min_value=1, max_value=64),
    "deadline": st.floats(min_value=1e-9, max_value=1e9),
    "urgency": st.sampled_from(["low", "high"]),
    "user": st.one_of(st.none(), st.text(max_size=3)),
}
FIELDS = sorted(VALID)

anything = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def valid_base() -> dict[str, Any]:
    return {"id": 7, "submit_time": 3.0, "runtime": 90.0, "estimated_runtime": 100.0,
            "numproc": 2, "deadline": 500.0, "urgency": "high", "user": "u"}


@st.composite
def job_payloads(draw: Any) -> Any:
    """A valid job with a few fields dropped, replaced or added."""
    payload = {key: draw(VALID[key]) for key in FIELDS if draw(st.integers(0, 3))}
    for key in draw(st.lists(st.sampled_from(FIELDS + ["bogus", "Runtime"]), max_size=3)):
        mode = draw(st.integers(0, 2))
        if mode == 0:
            payload.pop(key, None)
        else:
            payload[key] = draw(st.sampled_from(EDGES) if mode == 1 else anything)
    shape = draw(st.integers(0, 19))
    if shape == 0:
        return MappingProxyType(payload)
    if shape == 1:
        return draw(anything)
    return payload


@st.composite
def submit_envelopes(draw: Any) -> Any:
    frame: dict[str, Any] = {
        "v": draw(st.one_of(st.just(PROTOCOL_VERSION), st.sampled_from([2, "1", True, 1.0]))),
        "type": draw(st.one_of(st.just("submit"), st.sampled_from(REQUEST_TYPES),
                               st.sampled_from(["Submit", "", "nope", [1], {}]))),
        "job": draw(job_payloads()),
    }
    for key in draw(st.sets(st.sampled_from(["v", "type", "job"]), max_size=1)):
        del frame[key]
    if draw(st.booleans()):
        frame["trace"] = draw(st.one_of(st.text(max_size=8), st.sampled_from(EDGES)))
    if draw(st.integers(0, 9)) == 0:
        frame[draw(st.sampled_from(["jobs", "to", "extra"]))] = draw(anything)
    return frame


def as_wire(frame: dict[str, Any]) -> bytes:
    """The body a client would send (NaN and ±inf as JSON extensions)."""
    return json.dumps(frame).encode("utf-8")


# -- properties ---------------------------------------------------------------

class TestJobValidator:
    @pytest.mark.parametrize("field", FIELDS)
    def test_every_edge_in_every_field_matches_the_reference(self, field):
        for value in EDGES:
            for default in (None, 0.0):
                check_job(dict(valid_base(), **{field: value}), default)
        payload = valid_base()
        del payload[field]
        check_job(payload, None)
        check_job(payload, 4.0)

    @settings(max_examples=600, deadline=None)
    @given(job_payloads(), st.sampled_from([None, 0.0, 7.5]))
    def test_builds_or_refuses_exactly_as_the_reference(self, payload, default):
        check_job(payload, default)


class TestRequestValidator:
    @settings(max_examples=600, deadline=None)
    @given(submit_envelopes())
    def test_decoded_envelopes_match_the_reference(self, frame):
        check_request(frame)

    @settings(max_examples=400, deadline=None)
    @given(submit_envelopes())
    def test_wire_envelopes_match_the_reference(self, frame):
        try:
            body = as_wire(dict(frame, job=dict(frame["job"]))
                           if isinstance(frame.get("job"), Mapping) else frame)
        except (TypeError, ValueError):
            return
        check_request(body)
        check_request(body.decode("utf-8"))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=24), st.text(max_size=24)))
    def test_arbitrary_bodies_match_the_reference(self, body):
        check_request(body)
        check_request("\ufeff" + (body if isinstance(body, str) else "{}"))

    @pytest.mark.parametrize("body", [DEEP_ARRAY, DEEP_JOB], ids=["deep-array", "deep-job"])
    def test_a_body_nested_past_the_recursion_limit_is_now_bad_json(self, body):
        old = outcome(reference_parse_request, body)
        assert old[:2] == ("raised", "RecursionError")
        assert_same(outcome(protocol.parse_request, body), old)

    def test_a_literal_past_the_digit_limit_is_now_bad_json(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string digit limit")
        body = b'{"v":1,"type":"advance","to":' + b"9" * (limit + 1) + b"}"
        old = outcome(reference_parse_request, body)
        assert old[:2] == ("raised", "ValueError")
        assert outcome(protocol.parse_request, body) == (
            "refused", ErrorCode.BAD_JSON, f"invalid JSON: {old[2]}"
        )
