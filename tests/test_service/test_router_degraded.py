"""Degraded-mode routing: circuit breakers, retries, and failover parking.

Shard backends are real in-process ``ServiceServer`` instances (as in
``test_router.py``); a "shard kill" is stopping its HTTP server while
the service object — standing in for the worker's WAL-recovered state —
survives, and "recovery" is binding a fresh server on the same port.
"""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service import protocol
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.faults import DropRequest
from repro.service.protocol import PROTOCOL_VERSION, ErrorCode
from repro.service.server import AdmissionService, ServiceServer
from repro.service.sharding import ShardRouter, plan_shards, shard_for_job
from repro.service.sharding.breaker import CLOSED, OPEN

BASE = EngineConfig(policy="librarisk", num_nodes=8, rating=1.0)


def submit_payload(job_id: int, submit_time: float = 0.0, **overrides) -> dict:
    payload = {
        "id": job_id, "submit_time": submit_time, "runtime": 10.0,
        "estimated_runtime": 10.0, "numproc": 1, "deadline": 100.0,
    }
    payload.update(overrides)
    return payload


def submit_frame(payload: dict) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "submit", "job": payload}


class ScriptedService(AdmissionService):
    """Plays ``script`` — ``"drop"`` (hang up, no answer) or ``"shed"``
    (``overloaded`` with ``Retry-After`` 0.25) — one entry per RPC, then
    serves for real."""

    script: tuple = ()
    arrivals = 0

    def handle(self, body):
        self.arrivals += 1
        step = self.script[0] if self.script else None
        self.script = self.script[1:]
        if step == "drop":
            raise DropRequest("scripted")
        if step == "shed":
            return 503, protocol.error_response(ErrorCode.OVERLOADED, "scripted", retry_after=0.25)
        return super().handle(body)


class DegradedFleet:
    """N in-process shard servers behind a router with degraded-mode knobs."""

    def __init__(self, num_shards: int, **router_kwargs):
        self.configs = plan_shards(BASE, num_shards)
        self.services = [
            ScriptedService(AdmissionEngine(cfg)) for cfg in self.configs
        ]
        self.servers = [
            ServiceServer(svc, port=0).start() for svc in self.services
        ]
        router_kwargs.setdefault("timeout", 2.0)
        self.router = ShardRouter(
            BASE, [srv.url for srv in self.servers], **router_kwargs
        )

    def handle(self, request: dict):
        return self.router.handle(json.dumps(request).encode())

    def kill(self, shard: int) -> int:
        """Stop one shard's HTTP server; returns its port for recovery."""
        port = self.servers[shard].port
        self.servers[shard].stop()
        return port

    def recover(self, shard: int, port: int) -> None:
        """Bind a fresh server for the surviving service on the old port."""
        self.services[shard].draining = False
        self.servers[shard] = ServiceServer(
            self.services[shard], port=port
        ).start()

    def stop(self):
        self.router.close()
        for server in self.servers:
            try:
                server.stop()
            except OSError:
                pass


class _GarbageState:
    requests = 0


class _GarbageHandler(BaseHTTPRequestHandler):
    """Answers every RPC with HTTP 200 and a truncated JSON body."""

    def do_POST(self):
        _GarbageState.requests += 1
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = b'{"v": 1, "ok": tru'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def garbage_backend():
    _GarbageState.requests = 0
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _GarbageHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


class TestMalformedShardResponse:
    """Regression: truncated shard JSON must be a typed shard fault, not
    an unhandled exception, and must count toward the breaker."""

    def test_garbage_body_is_typed_unavailable(self, garbage_backend):
        router = ShardRouter(
            BASE, [garbage_backend], forward_retries=0, failure_threshold=5,
        )
        status, response = router.handle(
            json.dumps(submit_frame(submit_payload(1))).encode()
        )
        assert status == 503
        assert response["error"]["code"] == "unavailable"
        assert "malformed" in response["error"]["message"]

    def test_garbage_bodies_trip_the_breaker(self, garbage_backend):
        router = ShardRouter(
            BASE, [garbage_backend], forward_retries=0, failure_threshold=2,
        )
        frame = json.dumps(submit_frame(submit_payload(1))).encode()
        router.handle(frame)
        assert router.breakers[0].state == CLOSED
        router.handle(frame)
        assert router.breakers[0].state == OPEN
        served_before_fail_fast = _GarbageState.requests
        status, response = router.handle(frame)
        assert status == 503
        assert "circuit open" in response["error"]["message"]
        assert "retry_after" in response["error"]
        # Fail-fast means no connection reached the backend at all.
        assert _GarbageState.requests == served_before_fail_fast


class TestBreakerFailFast:
    def test_dead_shard_trips_and_fails_fast(self):
        fleet = DegradedFleet(
            2, forward_retries=0, failure_threshold=2, breaker_reset=60.0,
        )
        try:
            victim = shard_for_job(1, 2)
            fleet.kill(victim)
            frame = submit_frame(submit_payload(1))
            for _ in range(2):
                status, response = fleet.handle(frame)
                assert status == 503
                assert response["error"]["code"] == "unavailable"
            assert fleet.router.breakers[victim].state == OPEN
            status, response = fleet.handle(frame)
            assert status == 503
            assert "circuit open" in response["error"]["message"]
            # The sibling shard is untouched throughout.
            sibling = 1 - victim
            assert fleet.router.breakers[sibling].state == CLOSED
            status, _ = fleet.handle(submit_frame(
                submit_payload(2 if shard_for_job(2, 2) == sibling else 4)
            ))
        finally:
            fleet.stop()

    def test_health_probe_reopens_a_recovered_shard(self):
        fleet = DegradedFleet(
            2, forward_retries=0, failure_threshold=1, breaker_reset=0.05,
        )
        try:
            victim = shard_for_job(1, 2)
            port = fleet.kill(victim)
            fleet.handle(submit_frame(submit_payload(1)))
            assert fleet.router.breakers[victim].state == OPEN
            health = fleet.router.health_response()
            assert health["status"] == "degraded"
            assert health["shards"][str(victim)]["breaker"]["state"] != CLOSED
            fleet.recover(victim, port)
            import time
            time.sleep(0.1)  # let the cooldown expire into half-open
            health = fleet.router.health_response()
            assert health["status"] == "ok"
            assert health["shards"][str(victim)]["breaker"]["state"] == CLOSED
        finally:
            fleet.stop()


class TestParking:
    def test_submits_to_a_down_shard_are_parked_and_acked(self):
        fleet = DegradedFleet(2, forward_retries=0, max_parked=8)
        try:
            victim = shard_for_job(1, 2)
            fleet.kill(victim)
            status, response = fleet.handle(submit_frame(submit_payload(1)))
            assert status == 200
            assert response["type"] == "parked"
            assert response["shard"] == victim
            assert len(fleet.router.parking[victim]) == 1
        finally:
            fleet.stop()

    def test_full_lot_rejects_with_typed_retryable_error(self):
        fleet = DegradedFleet(2, forward_retries=0, max_parked=2)
        try:
            victim = shard_for_job(1, 2)
            fleet.kill(victim)
            owned = [j for j in range(1, 20) if shard_for_job(j, 2) == victim]
            for job_id in owned[:2]:
                status, response = fleet.handle(
                    submit_frame(submit_payload(job_id))
                )
                assert status == 200 and response["type"] == "parked"
            status, response = fleet.handle(
                submit_frame(submit_payload(owned[2]))
            )
            assert status == 503
            assert response["error"]["code"] == "parking_full"
            assert response["error"]["retry_after"] > 0
            assert "parking_full" in protocol.RETRYABLE_CODES
        finally:
            fleet.stop()

    def test_reparking_a_waiting_job_id_is_idempotent(self):
        fleet = DegradedFleet(2, forward_retries=0, max_parked=2)
        try:
            victim = shard_for_job(1, 2)
            fleet.kill(victim)
            frame = submit_frame(submit_payload(1))
            for _ in range(3):  # retries must not consume capacity
                status, response = fleet.handle(frame)
                assert status == 200 and response["type"] == "parked"
            assert len(fleet.router.parking[victim]) == 1
        finally:
            fleet.stop()

    def test_parked_submits_flush_in_order_on_recovery(self):
        fleet = DegradedFleet(
            2, forward_retries=0, max_parked=16,
            failure_threshold=1, breaker_reset=0.05,
        )
        try:
            victim = shard_for_job(1, 2)
            port = fleet.kill(victim)
            owned = [j for j in range(1, 30) if shard_for_job(j, 2) == victim]
            for job_id in owned[:4]:
                status, response = fleet.handle(submit_frame(
                    submit_payload(job_id, submit_time=float(job_id))
                ))
                assert status == 200 and response["type"] == "parked"
            fleet.recover(victim, port)
            import time
            time.sleep(0.1)
            flushed = fleet.router.flush_parking()
            assert flushed == {str(victim): 4}
            assert len(fleet.router.parking[victim]) == 0
            # The shard's engine saw the submits in original arrival order.
            engine = fleet.services[victim].engine
            seen = [j for j in owned[:4] if j in engine._jobs_by_id]
            assert seen == owned[:4]
            # Parked jobs are now queryable through the router.
            status, response = fleet.handle(
                {"v": PROTOCOL_VERSION, "type": "query", "job": owned[0]}
            )
            assert status == 200 and response["job"]["id"] == owned[0]
        finally:
            fleet.stop()


class TestMidBatchDeath:
    """A shard dead during a batch: siblings commit, victims park (or
    error, with parking off), and the merged frame preserves order."""

    def batch(self, n=8):
        return {
            "v": PROTOCOL_VERSION, "type": "batch",
            "jobs": [submit_payload(i, submit_time=float(i))
                     for i in range(1, n + 1)],
        }

    def test_victim_items_park_and_siblings_commit(self):
        fleet = DegradedFleet(2, forward_retries=0, max_parked=16)
        try:
            victim = shard_for_job(1, 2)
            fleet.kill(victim)
            frame = self.batch()
            status, response = fleet.handle(frame)
            assert status == 200
            results = response["results"]
            assert len(results) == len(frame["jobs"])
            for payload, item in zip(frame["jobs"], results):
                if shard_for_job(payload["id"], 2) == victim:
                    assert item["type"] == "parked", item
                    assert item["job"] == payload["id"]
                else:
                    assert item["ok"] and "decision" in item, item
            # Parked batch items are individually re-framed submits,
            # preserved in batch order.
            parked = [p for p in frame["jobs"]
                      if shard_for_job(p["id"], 2) == victim]
            lot = fleet.router.parking[victim]
            assert len(lot) == len(parked)
        finally:
            fleet.stop()

    def test_batch_after_recovery_matches_unkilled_fleet(self):
        """The tentpole invariant, in-process: a kill-park-recover drill
        ends byte-identical to a fleet that was never killed."""
        def run(drill: bool):
            fleet = DegradedFleet(
                2, forward_retries=0, max_parked=32,
                failure_threshold=1, breaker_reset=0.05,
            )
            try:
                victim = shard_for_job(1, 2)
                port = None
                frames = [
                    submit_frame(submit_payload(i, submit_time=float(i)))
                    for i in range(1, 13)
                ]
                for idx, frame in enumerate(frames):
                    if drill and idx == 4:
                        port = fleet.kill(victim)
                    if drill and idx == 9:
                        fleet.recover(victim, port)
                        import time
                        time.sleep(0.1)
                        fleet.router.flush_parking()
                    status, response = fleet.handle(frame)
                    assert status == 200, response
                    assert response.get("ok", False) is True
                if drill:
                    # Anything still parked drains before the final reads.
                    deadline = 50
                    while sum(
                        len(lot) for lot in fleet.router.parking
                    ) and deadline:
                        fleet.router.flush_parking()
                        deadline -= 1
                _, stats = fleet.handle(
                    {"v": PROTOCOL_VERSION, "type": "stats"}
                )
                _, drained = fleet.handle(
                    {"v": PROTOCOL_VERSION, "type": "drain"}
                )
                return protocol.encode(stats), protocol.encode(drained)
            finally:
                fleet.stop()

        assert run(drill=True) == run(drill=False)


class TestScatterGatherFaultPath:
    """The first attempt is written ahead; breaker, retry and error
    accounting stay attempt for attempt what a whole ``_post`` did."""

    batch = TestMidBatchDeath.batch

    def assert_all_decided(self, frame, response):
        assert [item["decision"]["job"] for item in response["results"]] == [
            payload["id"] for payload in frame["jobs"]
        ]

    def test_dropped_first_sub_frame_is_resent_once(self):
        naps: list[float] = []
        fleet = DegradedFleet(2, sleep=naps.append)
        try:
            fleet.services[0].script = ("drop",)
            frame = self.batch()
            status, response = fleet.handle(frame)
            assert status == 200
            self.assert_all_decided(frame, response)
            assert fleet.services[0].arrivals == 2 and fleet.services[1].arrivals == 1
            assert naps == [fleet.router.retry_backoff]
            text = fleet.router.prometheus_text()
            assert 'router_forward_errors_total{shard="0"} 1' in text
            assert 'router_forward_errors_total{shard="1"}' not in text
            for breaker in fleet.router.breakers:
                assert breaker.snapshot()["consecutive_failures"] == 0
                assert breaker.state == CLOSED and breaker.trips == 0
        finally:
            fleet.stop()

    def test_drop_without_a_retry_counts_one_failure_and_spares_the_sibling(self):
        fleet = DegradedFleet(2, forward_retries=0)
        try:
            fleet.services[0].script = ("drop",)
            frame = self.batch()
            _, response = fleet.handle(frame)
            for payload, item in zip(frame["jobs"], response["results"]):
                if shard_for_job(payload["id"], 2) == 0:
                    assert item["error"]["code"] == "unavailable"
                else:
                    assert item["decision"]["job"] == payload["id"]
            assert fleet.router.breakers[0].snapshot()["consecutive_failures"] == 1
            assert fleet.router.breakers[1].snapshot()["consecutive_failures"] == 0
        finally:
            fleet.stop()

    def test_open_breaker_fails_fast_and_writes_nothing(self):
        fleet = DegradedFleet(2, failure_threshold=1, breaker_reset=60.0)
        try:
            fleet.router.breakers[1].record_failure()
            frame = self.batch()
            status, response = fleet.handle(frame)
            assert status == 200
            for payload, item in zip(frame["jobs"], response["results"]):
                if shard_for_job(payload["id"], 2) == 1:
                    assert "circuit open" in item["error"]["message"]
                    assert item["error"]["retry_after"] > 0
                else:
                    assert item["decision"]["job"] == payload["id"]
            assert fleet.router._transports[1].opened == 0
            assert fleet.services[1].arrivals == 0
            assert 'router_breaker_fast_fail_total{shard="1"} 1' in (
                fleet.router.prometheus_text()
            )
        finally:
            fleet.stop()

    def test_overloaded_is_retried_after_the_shards_hint(self):
        naps: list[float] = []
        fleet = DegradedFleet(2, sleep=naps.append)
        try:
            fleet.services[1].script = ("shed",)
            frame = self.batch()
            status, response = fleet.handle(frame)
            assert status == 200
            self.assert_all_decided(frame, response)
            assert naps == [0.25]  # the shard's Retry-After, not the 0.05 backoff
            assert fleet.services[1].arrivals == 2 and fleet.services[0].arrivals == 1
            # Shedding proves the shard alive: no forward error, no failure.
            assert "router_forward_errors_total" not in fleet.router.prometheus_text()
            assert fleet.router.breakers[1].snapshot()["consecutive_failures"] == 0
        finally:
            fleet.stop()

    @pytest.mark.parametrize("retries, at_least, below", [(0, 0.3, 0.6), (1, 0.6, 1.2)])
    def test_hung_shards_share_one_timeout_per_first_attempt(self, retries, at_least, below):
        """Two shards accept and never answer.  Budgets run from each
        write, so both first attempts fail within one ``timeout``; a
        retry then runs whole at its shard's turn (0.3 s each), where a
        serial fan-out would cost 2 x attempts x 0.3 s."""
        hung = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]
        router = ShardRouter(
            BASE, [f"http://127.0.0.1:{s.getsockname()[1]}" for s in hung],
            timeout=0.3, forward_retries=retries, sleep=lambda _: None,
        )
        try:
            frame = self.batch()
            t0 = time.perf_counter()
            status, response = router.handle(json.dumps(frame).encode())
            elapsed = time.perf_counter() - t0
            assert status == 200
            assert [item["error"]["code"] for item in response["results"]] == (
                ["unavailable"] * len(frame["jobs"])
            )
            assert at_least <= elapsed < below, elapsed
            for breaker in router.breakers:
                assert breaker.snapshot()["consecutive_failures"] == retries + 1
        finally:
            router.close()
            for listener in hung:
                listener.close()
