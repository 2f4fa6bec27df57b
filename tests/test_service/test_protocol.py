"""Tests for the versioned JSON protocol."""

import json
import sys

import pytest

from repro.cluster.job import UrgencyClass
from repro.service import protocol
from repro.service.protocol import (
    AdvanceRequest,
    CheckpointRequest,
    DrainRequest,
    ErrorCode,
    PROTOCOL_VERSION,
    ProtocolError,
    QueryRequest,
    StatsRequest,
    SubmitRequest,
)
from tests.conftest import make_job


def req(**fields):
    return {"v": PROTOCOL_VERSION, **fields}


class TestParseRequest:
    def test_parses_every_type(self):
        assert isinstance(
            protocol.parse_request(req(type="submit", job={
                "estimated_runtime": 10.0, "deadline": 50.0, "submit_time": 0.0,
            })),
            SubmitRequest,
        )
        assert protocol.parse_request(req(type="query", job=3)) == QueryRequest(3)
        assert isinstance(protocol.parse_request(req(type="stats")), StatsRequest)
        assert protocol.parse_request(req(type="advance", to=5.0)) == AdvanceRequest(5.0)
        assert isinstance(protocol.parse_request(req(type="drain")), DrainRequest)
        assert protocol.parse_request(
            req(type="checkpoint", path="/tmp/x.json")
        ) == CheckpointRequest("/tmp/x.json")

    def test_accepts_bytes_and_str(self):
        body = json.dumps(req(type="stats"))
        assert isinstance(protocol.parse_request(body), StatsRequest)
        assert isinstance(protocol.parse_request(body.encode()), StatsRequest)

    def _code(self, data) -> str:
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_request(data)
        return excinfo.value.code

    def test_rejects_non_json(self):
        assert self._code(b"not json {") == ErrorCode.BAD_JSON

    def test_rejects_non_utf8(self):
        assert self._code(b"\xff\xfe") == ErrorCode.BAD_JSON

    def test_rejects_non_object(self):
        assert self._code("[1, 2]") == ErrorCode.BAD_JSON

    def test_rejects_missing_version(self):
        assert self._code({"type": "stats"}) == ErrorCode.BAD_VERSION

    def test_rejects_wrong_version(self):
        assert self._code({"v": 2, "type": "stats"}) == ErrorCode.BAD_VERSION

    def test_rejects_unknown_type(self):
        assert self._code(req(type="frobnicate")) == ErrorCode.UNKNOWN_TYPE

    def test_rejects_unknown_top_level_field(self):
        assert self._code(req(type="stats", extra=1)) == ErrorCode.INVALID_FIELD

    def test_rejects_non_numeric_advance_target(self):
        assert self._code(req(type="advance", to="soon")) == ErrorCode.INVALID_FIELD

    def test_rejects_boolean_masquerading_as_number(self):
        assert self._code(req(type="advance", to=True)) == ErrorCode.INVALID_FIELD

    def test_rejects_non_string_checkpoint_path(self):
        assert self._code(req(type="checkpoint", path=7)) == ErrorCode.INVALID_FIELD


class TestJobPayload:
    def base(self, **overrides):
        payload = {
            "submit_time": 5.0, "runtime": 100.0, "estimated_runtime": 120.0,
            "numproc": 2, "deadline": 400.0,
        }
        payload.update(overrides)
        return payload

    def test_builds_job(self):
        job = protocol.job_from_payload(self.base(id=9, urgency="high", user="u1"))
        assert job.job_id == 9
        assert job.runtime == 100.0
        assert job.numproc == 2
        assert job.urgency is UrgencyClass.HIGH
        assert job.user == "u1"

    def test_runtime_defaults_to_estimate(self):
        payload = self.base()
        del payload["runtime"]
        job = protocol.job_from_payload(payload)
        assert job.runtime == 120.0

    def test_numproc_defaults_to_one(self):
        payload = self.base()
        del payload["numproc"]
        assert protocol.job_from_payload(payload).numproc == 1

    def test_submit_time_falls_back_to_default(self):
        payload = self.base()
        del payload["submit_time"]
        job = protocol.job_from_payload(payload, default_submit_time=33.0)
        assert job.submit_time == 33.0

    def test_submit_time_required_without_default(self):
        payload = self.base()
        del payload["submit_time"]
        with pytest.raises(ProtocolError, match="submit_time"):
            protocol.job_from_payload(payload)

    @pytest.mark.parametrize("field,value", [
        ("estimated_runtime", 0.0),
        ("estimated_runtime", "fast"),
        ("deadline", -1.0),
        ("deadline", float("nan")),
        ("numproc", 0),
        ("numproc", 1.5),
        ("urgency", "panic"),
        ("user", 42),
        ("bogus_field", 1),
    ])
    def test_rejects_invalid_fields(self, field, value):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.job_from_payload(self.base(**{field: value}))
        assert excinfo.value.code == ErrorCode.INVALID_FIELD

    def test_query_view_of_finished_job(self):
        job = make_job(runtime=10.0, deadline=50.0, job_id=4)
        job.mark_submitted()
        job.mark_running(0.0, [0])
        job.mark_completed(10.0)
        view = protocol.job_payload(job)
        assert view["state"] == "completed"
        assert view["finish_time"] == 10.0
        assert view["deadline_met"] is True


#: 401 digits: valid JSON, but past the largest float.
HUGE = 10 ** 400


def digit_limit():
    """The interpreter's int-string digit limit, or None where unlimited."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or None


class TestOversizedNumbers:
    """Numbers JSON can carry but no float can hold: typed refusals."""

    def base(self, **overrides):
        payload = {
            "submit_time": 5.0, "estimated_runtime": 120.0, "deadline": 400.0,
        }
        payload.update(overrides)
        return payload

    @pytest.mark.parametrize("field", [
        "estimated_runtime", "runtime", "deadline", "submit_time",
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_past_float_range_is_invalid_field(self, field, sign):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.job_from_payload(self.base(**{field: sign * HUGE}))
        assert excinfo.value.code == ErrorCode.INVALID_FIELD
        assert excinfo.value.message == f"job.{field} must be finite"

    def test_advance_target_past_float_range_is_invalid_field(self):
        body = json.dumps(req(type="advance", to=HUGE))
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_request(body)
        assert excinfo.value.code == ErrorCode.INVALID_FIELD
        assert excinfo.value.message == "request.to must be finite"

    def test_integer_literal_past_the_digit_limit_is_bad_json(self):
        limit = digit_limit()
        if limit is None:
            pytest.skip("this interpreter has no int-string digit limit")
        body = b'{"v":1,"type":"advance","to":' + b"7" * (limit + 1) + b"}"
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_request(body)
        assert excinfo.value.code == ErrorCode.BAD_JSON
        assert excinfo.value.message.startswith("invalid JSON: ")

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_leading_bom_is_refused_as_json_loads_refuses_it(self, as_bytes):
        body = "\ufeff" + json.dumps(req(type="stats"))
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_request(body.encode("utf-8") if as_bytes else body)
        assert excinfo.value.code == ErrorCode.BAD_JSON
        with pytest.raises(json.JSONDecodeError) as reference:
            json.loads(body)
        assert excinfo.value.message == f"invalid JSON: {reference.value}"


class TestResponses:
    def test_ok_envelope(self):
        response = protocol.ok_response("stats", stats={"t": 0.0})
        assert response["v"] == PROTOCOL_VERSION
        assert response["ok"] is True
        assert response["type"] == "stats"

    def test_error_envelope_and_status(self):
        response = protocol.error_response(ErrorCode.OVERLOADED, "busy")
        assert response["ok"] is False
        assert response["error"]["code"] == "overloaded"
        assert ProtocolError(ErrorCode.OVERLOADED, "busy").http_status == 503

    def test_every_code_has_a_status(self):
        codes = {
            v for k, v in vars(ErrorCode).items() if not k.startswith("_")
        }
        # `unavailable` is synthesized client-side for transport
        # failures (status 0); a server never sends it over HTTP.
        assert codes - {ErrorCode.UNAVAILABLE} == set(protocol.HTTP_STATUS)

    def test_retryable_codes_are_known(self):
        codes = {
            v for k, v in vars(ErrorCode).items() if not k.startswith("_")
        }
        assert protocol.RETRYABLE_CODES <= codes
        # Deliberate refusals must never be retried verbatim.
        for code in (ErrorCode.CONFLICT, ErrorCode.OUT_OF_ORDER,
                     ErrorCode.BAD_JSON, ErrorCode.NOT_FOUND):
            assert code not in protocol.RETRYABLE_CODES

    def test_error_response_carries_retry_after(self):
        response = protocol.error_response(
            ErrorCode.OVERLOADED, "busy", retry_after=2.5
        )
        assert response["error"]["retry_after"] == 2.5
        plain = protocol.error_response(ErrorCode.OVERLOADED, "busy")
        assert "retry_after" not in plain["error"]

    def test_encode_is_canonical(self):
        a = protocol.encode({"b": 1, "a": 2})
        b = protocol.encode({"a": 2, "b": 1})
        assert a == b == b'{"a":2,"b":1}'
