"""Retrying-client tests: backoff schedules, Retry-After, idempotency.

Everything here is deterministic: the jitter RNG is seeded and sleeps
are recorded instead of slept.
"""

import random

import pytest

from repro.service import protocol
from repro.service.client import RetryPolicy, RetryingClient
from repro.service.loadgen import ServiceClient
from repro.service.protocol import ErrorCode


def ok(payload="stats"):
    return 200, protocol.ok_response(payload, stats={})

def err(code, status=503, retry_after=None):
    return status, protocol.error_response(code, "scripted", retry_after=retry_after)


class ScriptedTransport:
    """Replaces ServiceClient.rpc with a canned response sequence."""

    def __init__(self, monkeypatch, responses):
        self.responses = list(responses)
        self.calls = 0
        monkeypatch.setattr(ServiceClient, "rpc", self._rpc)

    def _rpc(self, _request):
        # Installed as a *bound* method, so the ServiceClient instance
        # never appears in the signature — only the request does.
        self.calls += 1
        if not self.responses:
            raise AssertionError("transport script exhausted")
        return self.responses.pop(0)


def make_client(**kwargs) -> tuple[RetryingClient, list]:
    slept: list = []
    client = RetryingClient(
        "http://127.0.0.1:1", sleep=slept.append, seed=kwargs.pop("seed", 3),
        **kwargs,
    )
    return client, slept


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                             jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(k, rng) for k in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_shrinks_but_never_grows_the_delay(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                             jitter=0.5)
        rng = random.Random(7)
        for _ in range(50):
            assert 0.5 <= policy.delay(0, rng) <= 1.0

    def test_schedule_is_seed_deterministic(self):
        policy = RetryPolicy()
        a = [policy.delay(k, random.Random(9)) for k in range(4)]
        b = [policy.delay(k, random.Random(9)) for k in range(4)]
        assert a == b


class TestRetryingClient:
    def test_retries_until_success(self, monkeypatch):
        transport = ScriptedTransport(monkeypatch, [
            err(ErrorCode.OVERLOADED), (0, protocol.error_response(
                ErrorCode.UNAVAILABLE, "connection refused")), ok(),
        ])
        client, slept = make_client()
        status, response = client.rpc({"v": 1, "type": "stats"})
        assert status == 200 and response["ok"]
        assert transport.calls == 3
        assert client.retries == 2 and len(slept) == 2

    def test_gives_up_after_max_attempts(self, monkeypatch):
        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        transport = ScriptedTransport(
            monkeypatch, [err(ErrorCode.OVERLOADED)] * 3
        )
        client, slept = make_client(policy=policy)
        status, response = client.rpc({"v": 1, "type": "stats"})
        assert status == 503 and response["error"]["code"] == "overloaded"
        assert transport.calls == 3 and len(slept) == 2

    def test_4xx_refusals_are_never_retried(self, monkeypatch):
        transport = ScriptedTransport(
            monkeypatch, [err(ErrorCode.CONFLICT, status=409)]
        )
        client, slept = make_client()
        status, _ = client.rpc({"v": 1, "type": "submit", "job": {"id": 1}})
        assert status == 409
        assert transport.calls == 1 and slept == []

    def test_submit_without_id_gets_exactly_one_attempt(self, monkeypatch):
        # Without an explicit id the server cannot deduplicate a retry;
        # each resend would create a brand-new job.
        transport = ScriptedTransport(
            monkeypatch, [(0, protocol.error_response(
                ErrorCode.UNAVAILABLE, "timed out"))]
        )
        client, slept = make_client()
        status, _ = client.rpc(
            {"v": 1, "type": "submit", "job": {"runtime": 1.0}}
        )
        assert status == 0
        assert transport.calls == 1 and slept == []

    def test_submit_with_id_is_retried(self, monkeypatch):
        transport = ScriptedTransport(monkeypatch, [
            (0, protocol.error_response(ErrorCode.UNAVAILABLE, "reset")), ok(),
        ])
        client, _ = make_client()
        status, _ = client.rpc({"v": 1, "type": "submit", "job": {"id": 5}})
        assert status == 200 and transport.calls == 2

    def test_server_retry_after_overrides_backoff(self, monkeypatch):
        ScriptedTransport(monkeypatch, [
            err(ErrorCode.OVERLOADED, retry_after=7.5), ok(),
        ])
        client, slept = make_client()
        client.rpc({"v": 1, "type": "stats"})
        assert slept == [7.5]

    def test_backoff_schedule_is_deterministic(self, monkeypatch):
        responses = [err(ErrorCode.OVERLOADED)] * 4 + [ok()]
        ScriptedTransport(monkeypatch, list(responses))
        client_a, slept_a = make_client(seed=21)
        client_a.rpc({"v": 1, "type": "stats"})
        ScriptedTransport(monkeypatch, list(responses))
        client_b, slept_b = make_client(seed=21)
        client_b.rpc({"v": 1, "type": "stats"})
        assert slept_a == slept_b and len(slept_a) == 4

    def test_client_stats_shape(self):
        client, _ = make_client()
        assert client.client_stats == {"attempts": 0, "retries": 0}

    def test_transport_errors_against_dead_port_are_typed(self):
        # No server behind this port: the plain client must map the
        # refused connection to a status-0 unavailable result.
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        status, response = client.rpc({"v": 1, "type": "stats"})
        assert status == 0
        assert response["error"]["code"] == "unavailable"
