"""Degraded-mode routing: circuit breakers, retries, and failover parking.

Shard backends are real in-process ``ServiceServer`` instances (as in
``test_router.py``); a "shard kill" is stopping its HTTP server while
the service object — standing in for the worker's WAL-recovered state —
survives, and "recovery" is binding a fresh server on the same port.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service import protocol
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.protocol import PROTOCOL_VERSION
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


class DegradedFleet:
    """N in-process shard servers behind a router with degraded-mode knobs."""

    def __init__(self, num_shards: int, **router_kwargs):
        self.configs = plan_shards(BASE, num_shards)
        self.services = [
            AdmissionService(AdmissionEngine(cfg)) for cfg in self.configs
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
