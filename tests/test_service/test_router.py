"""Router semantics: deterministic fan-out over in-process shard servers.

The backends here are real ``ServiceServer`` instances (HTTP and all) —
only the worker *processes* of ``repro serve --shards`` are replaced by
in-process servers, so every routing/merging behaviour is exercised over
the actual wire format.
"""

import contextlib
import json
import sys
import threading

import pytest

from repro.service import protocol
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.loadgen import ServiceClient
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import AdmissionService, ServiceServer
from repro.service.sharding.partition import plan_shards, shard_for_job
from repro.service.sharding.router import RouterServer, ShardRouter
from tests.test_service.test_server import HOSTILE_BODIES

BASE = EngineConfig(policy="librarisk", num_nodes=8, rating=1.0)


class Fleet:
    """N in-process shard servers behind one router."""

    def __init__(self, num_shards: int, base: EngineConfig = BASE, router=ShardRouter):
        self.configs = plan_shards(base, num_shards)
        self.services = [
            AdmissionService(AdmissionEngine(cfg)) for cfg in self.configs
        ]
        self.servers = [
            ServiceServer(svc, port=0).start() for svc in self.services
        ]
        self.router = router(base, [srv.url for srv in self.servers])

    def stop(self):
        self.router.close()
        for server in self.servers:
            server.stop()

    def handle(self, request: dict):
        return self.router.handle(json.dumps(request).encode())


@pytest.fixture
def fleet():
    f = Fleet(4)
    yield f
    f.stop()


def submit_payload(job_id: int, submit_time: float = 0.0, **overrides) -> dict:
    payload = {
        "id": job_id, "submit_time": submit_time, "runtime": 10.0,
        "estimated_runtime": 10.0, "numproc": 1, "deadline": 100.0,
    }
    payload.update(overrides)
    return payload


def submit_frame(payload: dict) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "submit", "job": payload}


class TestRouting:
    def test_submits_land_on_the_hash_owner(self, fleet):
        for job_id in range(1, 9):
            status, response = fleet.handle(submit_frame(
                submit_payload(job_id, submit_time=float(job_id))
            ))
            assert status == 200, response
        for job_id in range(1, 9):
            owner = shard_for_job(job_id, 4)
            for shard, service in enumerate(fleet.services):
                known = service.engine.query(job_id) is not None
                assert known == (shard == owner)

    def test_queries_follow_the_submit_hash(self, fleet):
        fleet.handle(submit_frame(submit_payload(5)))
        status, response = fleet.handle(
            {"v": PROTOCOL_VERSION, "type": "query", "job": 5}
        )
        assert status == 200
        assert response["job"]["id"] == 5

    def test_duplicate_resubmit_is_idempotent_across_the_fleet(self, fleet):
        frame = submit_frame(submit_payload(12))
        _, first = fleet.handle(frame)
        _, second = fleet.handle(frame)
        assert second["duplicate"] is True
        assert second["decision"] == first["decision"]

    def test_conflicting_resubmit_is_a_conflict(self, fleet):
        fleet.handle(submit_frame(submit_payload(12)))
        status, response = fleet.handle(submit_frame(
            submit_payload(12, runtime=99.0)
        ))
        assert status == 409
        assert response["error"]["code"] == "conflict"

    def test_batch_items_return_to_their_original_positions(self, fleet):
        payloads = [submit_payload(i, submit_time=float(i))
                    for i in range(1, 9)]
        status, response = fleet.handle(
            {"v": PROTOCOL_VERSION, "type": "batch", "jobs": payloads}
        )
        assert status == 200
        decisions = [item["decision"]["job"] for item in response["results"]]
        assert decisions == list(range(1, 9))

    def test_advance_merges_to_the_fleet_horizon(self, fleet):
        fleet.handle(submit_frame(submit_payload(1, submit_time=5.0)))
        status, response = fleet.handle(
            {"v": PROTOCOL_VERSION, "type": "advance", "to": 50.0}
        )
        assert status == 200
        assert response["t"] == 50.0

    def test_stats_sum_and_expose_per_shard_detail(self, fleet):
        for job_id in range(1, 9):
            fleet.handle(submit_frame(
                submit_payload(job_id, submit_time=float(job_id))
            ))
        status, response = fleet.handle(
            {"v": PROTOCOL_VERSION, "type": "stats"}
        )
        stats = response["stats"]
        assert stats["submitted"] == 8
        assert stats["shard_count"] == 4
        assert stats["shards_reachable"] == 4
        assert sum(
            s["submitted"] for s in stats["shards"].values()
        ) == 8

    def test_stats_merge_every_job_count_and_name_the_policy(self, fleet):
        # Long jobs on one-node shards: some run, the rest are refused or
        # never finish, so running/failed/queued are not all trivially 0.
        for job_id in range(1, 13):
            fleet.handle(submit_frame(submit_payload(
                job_id, submit_time=float(job_id), runtime=500.0,
                estimated_runtime=500.0, deadline=5000.0,
            )))
        fleet.handle({"v": PROTOCOL_VERSION, "type": "advance", "to": 20.0})
        _, response = fleet.handle({"v": PROTOCOL_VERSION, "type": "stats"})
        stats = response["stats"]
        assert stats["policy"] == "librarisk"
        per_shard = list(stats["shards"].values())
        for key in ("submitted", "accepted", "rejected", "completed",
                    "failed", "running", "queued"):
            assert stats[key] == sum(s[key] for s in per_shard), key
        assert stats["running"] > 0

    def test_drain_merges_scenario_metrics(self, fleet):
        for job_id in range(1, 9):
            fleet.handle(submit_frame(
                submit_payload(job_id, submit_time=float(job_id))
            ))
        status, response = fleet.handle({"v": PROTOCOL_VERSION, "type": "drain"})
        assert status == 200
        merged = response["metrics"]
        assert merged["total_submitted"] == 8
        assert set(response["shards"]) == {"0", "1", "2", "3"}
        assert sum(
            m["total_submitted"] for m in response["shards"].values()
        ) == 8

    def test_checkpoint_fans_out_to_shard_namespaced_paths(self, fleet, tmp_path):
        fleet.handle(submit_frame(submit_payload(1)))
        target = str(tmp_path / "fleet.json")
        status, response = fleet.handle(
            {"v": PROTOCOL_VERSION, "type": "checkpoint", "path": target}
        )
        assert status == 200
        paths = response["paths"]
        assert paths["0"].endswith("fleet.shard0of4.json")
        for path in paths.values():
            assert (tmp_path / path.split("/")[-1]).exists()

    def test_inline_checkpoint_is_refused(self, fleet):
        status, response = fleet.handle(
            {"v": PROTOCOL_VERSION, "type": "checkpoint"}
        )
        assert status == 400
        assert response["error"]["code"] == "invalid_field"


@pytest.fixture
def fleet2():
    f = Fleet(2)
    yield f
    f.stop()


class TestHostileNumbers:
    """Numbers valid JSON can carry but no float or int parse can hold."""

    def test_submit_past_float_range_is_a_typed_400(self, fleet2):
        status, response = fleet2.handle(submit_frame(
            submit_payload(1, estimated_runtime=10 ** 400)
        ))
        assert status == 400
        assert response["error"] == {
            "code": "invalid_field",
            "message": "job.estimated_runtime must be finite",
        }

    def test_batch_item_past_float_range_does_not_void_its_siblings(self, fleet2):
        # Ids 1-8 cover both shards, so the bad item shares its sub-frame.
        payloads = [submit_payload(i, submit_time=float(i)) for i in range(1, 9)]
        payloads[2]["runtime"] = -10 ** 400
        status, response = fleet2.handle(
            {"v": PROTOCOL_VERSION, "type": "batch", "jobs": payloads}
        )
        assert status == 200
        results = response["results"]
        assert results[2] == protocol.error_response(
            "invalid_field", "job.runtime must be finite"
        )
        owner = shard_for_job(3, 2)
        siblings = [i for i in range(1, 9) if i != 3 and shard_for_job(i, 2) == owner]
        assert siblings
        for position, item in enumerate(results):
            if position != 2:
                assert item["ok"] and item["decision"]["job"] == position + 1

    def test_integer_literal_past_the_digit_limit_is_bad_json(self, fleet2):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string digit limit")
        body = b'{"v":1,"type":"advance","to":' + b"7" * (limit + 1) + b"}"
        status, response = fleet2.router.handle(body)
        assert status == 400
        assert response["error"]["code"] == "bad_json"

    @pytest.mark.parametrize("body, code, prefix", HOSTILE_BODIES)
    def test_hostile_body_gets_the_single_servers_400(self, fleet2, body, code, prefix):
        single = AdmissionService(AdmissionEngine(BASE)).handle(body)
        assert single[0] == 400
        assert fleet2.router.handle(body) == single


class TestDegradation:
    def test_one_draining_shard_degrades_the_merged_health(self, fleet):
        fleet.services[2].draining = True
        health = fleet.router.health_response()
        assert health["status"] == "degraded"
        assert health["ok"] is True
        entries = health["shards"]
        assert entries["2"]["status"] == "draining"
        draining = [s for s, e in entries.items() if e["status"] != "ok"]
        assert draining == ["2"]

    def test_all_shards_down_is_down(self):
        f = Fleet(2)
        f.stop()
        health = f.router.health_response()
        assert health["status"] == "down"
        assert health["ok"] is False
        assert health["shards_down"] == 2

    def test_dead_shard_submits_are_typed_unavailable(self):
        f = Fleet(2)
        try:
            victim = shard_for_job(1, 2)
            f.servers[victim].stop()
            status, response = f.handle(submit_frame(submit_payload(1)))
            assert status == 503
            assert response["error"]["code"] == "unavailable"
        finally:
            f.stop()

    def test_batch_items_on_a_dead_shard_inherit_the_frame_error(self):
        f = Fleet(2)
        try:
            victim = shard_for_job(1, 2)
            f.servers[victim].stop()
            payloads = [submit_payload(i, submit_time=float(i))
                        for i in range(1, 7)]
            status, response = f.handle(
                {"v": PROTOCOL_VERSION, "type": "batch", "jobs": payloads}
            )
            assert status == 200
            for payload, item in zip(payloads, response["results"]):
                if shard_for_job(payload["id"], 2) == victim:
                    assert item["error"]["code"] == "unavailable"
                else:
                    assert item["ok"], item
        finally:
            f.stop()

    def test_draining_router_refuses_requests(self, fleet):
        fleet.router.draining = True
        status, response = fleet.handle(submit_frame(submit_payload(1)))
        assert status == 503
        assert response["error"]["code"] == "shutting_down"


class TestSingleShardByteIdentity:
    """A 1-shard router must be invisible on the wire."""

    def run_stream(self, handle):
        out = []
        for job_id in range(1, 7):
            out.append(handle(submit_frame(
                submit_payload(job_id, submit_time=float(job_id))
            )))
        out.append(handle({"v": PROTOCOL_VERSION, "type": "query", "job": 3}))
        out.append(handle({"v": PROTOCOL_VERSION, "type": "trace", "job": 3}))
        out.append(handle({"v": PROTOCOL_VERSION, "type": "stats"}))
        out.append(handle({"v": PROTOCOL_VERSION, "type": "drain"}))
        return [
            (status, protocol.encode(response)) for status, response in out
        ]

    def test_every_response_matches_the_unsharded_server(self):
        unsharded = AdmissionService(AdmissionEngine(BASE))
        direct = self.run_stream(
            lambda req: unsharded.handle(json.dumps(req).encode())
        )
        f = Fleet(1)
        try:
            routed = self.run_stream(f.handle)
        finally:
            f.stop()
        assert routed == direct

    def test_trace_span_tree_matches_the_unsharded_engine(self):
        unsharded = AdmissionService(AdmissionEngine(BASE))
        f = Fleet(1)
        try:
            frame = submit_frame(submit_payload(3, submit_time=1.0))
            unsharded.handle(json.dumps(frame).encode())
            f.handle(frame)
            trace_req = {"v": PROTOCOL_VERSION, "type": "trace", "job": 3}
            _, direct = unsharded.handle(json.dumps(trace_req).encode())
            _, routed = f.handle(trace_req)
            assert protocol.encode(routed) == protocol.encode(direct)
        finally:
            f.stop()


class TestMultiShardDeterminism:
    def run_fleet(self):
        f = Fleet(4)
        try:
            payloads = [submit_payload(i, submit_time=float(i))
                        for i in range(1, 21)]
            outputs = []
            for start in range(0, len(payloads), 5):
                status, response = f.handle({
                    "v": PROTOCOL_VERSION, "type": "batch",
                    "jobs": payloads[start:start + 5],
                })
                assert status == 200
                outputs.append(protocol.encode(response))
            _, drained = f.handle({"v": PROTOCOL_VERSION, "type": "drain"})
            outputs.append(protocol.encode(drained))
            return outputs
        finally:
            f.stop()

    def test_identical_streams_produce_identical_bytes(self):
        assert self.run_fleet() == self.run_fleet()

    def test_shards_mint_disjoint_trace_ids(self, fleet):
        for job_id in range(1, 9):
            fleet.handle(submit_frame(
                submit_payload(job_id, submit_time=float(job_id))
            ))
        traces = set()
        for job_id in range(1, 9):
            _, response = fleet.handle(
                {"v": PROTOCOL_VERSION, "type": "trace", "job": job_id}
            )
            traces.add(response["trace"]["trace_id"])
        assert len(traces) == 8


class SerialRouter(ShardRouter):
    """Reference fan-out: one whole exchange per shard, one shard after another."""

    def _fan_out(self, bodies):
        return {
            shard: ShardRouter._fan_out(self, {shard: body})[shard]
            for shard, body in bodies.items()
        }

    def _get_all(self, path):
        return [
            self._get(shard, self._write(shard, None, "GET", path))
            for shard in range(self.num_shards)
        ]


@contextlib.contextmanager
def no_thread_from_this_thread(monkeypatch):
    """``Thread.start`` raises when the calling (routing) thread invokes it;
    the in-process shard servers' own threads are left alone."""
    real_start, caller = threading.Thread.start, threading.get_ident()

    def start(thread):
        if threading.get_ident() == caller:
            raise AssertionError(f"the router started a thread: {thread.name}")
        real_start(thread)

    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", start)
        yield


class TestThreadFreeFanOut:
    """Write-all-then-read-all on the calling thread answers what one
    exchange per shard, run serially, answers — and starts no thread."""

    def frames(self, checkpoint_path):
        payloads = [submit_payload(i, submit_time=float(i)) for i in range(1, 25)]
        batches = [
            {"v": PROTOCOL_VERSION, "type": "batch", "jobs": payloads[at:at + 8]}
            for at in range(0, len(payloads), 8)
        ]
        return batches + [
            {"v": PROTOCOL_VERSION, "type": "stats"},
            {"v": PROTOCOL_VERSION, "type": "advance", "to": 40.0},
            {"v": PROTOCOL_VERSION, "type": "checkpoint", "path": checkpoint_path},
            {"v": PROTOCOL_VERSION, "type": "drain"},
        ]

    def run_stream(self, fleet, directory, monkeypatch):
        directory.mkdir()
        with no_thread_from_this_thread(monkeypatch):
            out = [
                protocol.encode(fleet.handle(frame)[1]).decode()
                for frame in self.frames(str(directory / "fleet.json"))
            ]
        return [line.replace(str(directory), "<dir>") for line in out]

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_rpc_frames_match_the_serial_reference(self, num_shards, tmp_path, monkeypatch):
        scattered, serial = Fleet(num_shards), Fleet(num_shards, router=SerialRouter)
        try:
            got = self.run_stream(scattered, tmp_path / "scattered", monkeypatch)
            want = self.run_stream(serial, tmp_path / "serial", monkeypatch)
            assert got == want
            assert all('"ok":true' in line for line in got)
            # One pooled connection per shard carried the whole stream.
            assert [t.opened for t in scattered.router._transports] == [1] * num_shards
        finally:
            scattered.stop()
            serial.stop()

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_side_endpoints_match_the_serial_reference(self, num_shards, monkeypatch):
        fleet = Fleet(num_shards)
        reference = SerialRouter(BASE, fleet.router.backends)
        try:
            for job_id in range(1, 9):
                fleet.handle(submit_frame(submit_payload(job_id, submit_time=float(job_id))))
            fleet.services[1].draining = True  # a non-trivial merged health
            want_health = reference.health_response()
            want_metrics = reference.prometheus_text()
            with no_thread_from_this_thread(monkeypatch):
                health = fleet.router.health_response()
                metrics = fleet.router.prometheus_text()
            assert health == want_health and health["status"] == "degraded"
            # The routers' own registries differ (one routed the submits);
            # the merged shard series are everything before them.
            own = metrics.index("# TYPE router_")
            assert metrics[:own] == want_metrics[:want_metrics.index("# TYPE router_")]
            assert 'shard="%d"' % (num_shards - 1) in metrics[:own]
        finally:
            reference.close()
            fleet.stop()


class TestRouterServer:
    def test_http_surface_matches_a_single_server(self):
        f = Fleet(2)
        server = RouterServer(f.router, port=0).start()
        try:
            client = ServiceClient(server.url, timeout=5.0)
            assert client.healthy()
            status, response = client.rpc(submit_frame(submit_payload(1)))
            assert status == 200
            assert response["decision"]["outcome"] == "accepted"
            status, stats = client.stats()
            assert stats["stats"]["submitted"] == 1
            client.close()
        finally:
            server.stop()
            f.stop()

    def test_merged_metrics_carry_shard_labels(self):
        f = Fleet(2)
        server = RouterServer(f.router, port=0).start()
        try:
            client = ServiceClient(server.url, timeout=5.0)
            # Jobs 1 and 4 hash to different shards of two, so both
            # backends have samples to contribute.
            client.rpc(submit_frame(submit_payload(1, submit_time=1.0)))
            client.rpc(submit_frame(submit_payload(4, submit_time=4.0)))
            import urllib.request

            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                text = resp.read().decode()
            assert 'shard="0"' in text
            assert 'shard="1"' in text
            assert "router_requests_total" in text
            client.close()
        finally:
            server.stop()
            f.stop()

    def test_keepalive_burst_has_no_delayed_ack_stall(self):
        from tests.test_service.test_server import keepalive_burst

        f = Fleet(1)
        server = RouterServer(f.router, port=0).start()
        try:
            elapsed = keepalive_burst(server)
            assert elapsed < 0.4, f"40 keep-alive requests took {elapsed:.3f}s"
            # ... and the router held one pooled connection to its shard.
            assert f.router._transports[0].opened == 1
        finally:
            assert server.stop() is True
            f.stop()

    def test_concurrent_frames_do_not_cross_talk(self):
        """4 clients x 40 batch frames share the pooled shard transports:
        every item comes back at its position with its own job id."""
        f = Fleet(2)
        server = RouterServer(f.router, port=0).start()
        failures: list[str] = []

        def client_loop(index: int) -> None:
            client = ServiceClient(server.url, timeout=10.0)
            try:
                for frame in range(40):
                    first = 1 + index * 1000 + frame * 6
                    ids = list(range(first, first + 6))
                    status, response = client.rpc({
                        "v": PROTOCOL_VERSION, "type": "batch",
                        "jobs": [submit_payload(job_id) for job_id in ids],
                    })
                    got = [item.get("decision", {}).get("job")
                           for item in response.get("results", [])]
                    if status != 200 or got != ids:
                        failures.append(f"client {index} frame {frame}: {status} {got}")
            finally:
                client.close()

        try:
            threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert failures == []
            assert all(1 <= t.opened <= 4 for t in f.router._transports)
            assert sum(len(svc.engine.decisions) for svc in f.services) == 4 * 40 * 6
        finally:
            server.stop()
            f.stop()

    def test_a_bug_while_routing_is_a_typed_500_not_a_dead_connection(self):
        class Exploding:
            def send(self, method, path, body=None):
                raise RuntimeError("scripted bug")

            def close(self):
                pass

        f = Fleet(2)
        server = RouterServer(f.router, port=0).start()
        try:
            client = ServiceClient(server.url, timeout=5.0)
            frame = {"v": PROTOCOL_VERSION, "type": "batch",
                     "jobs": [submit_payload(i) for i in range(1, 7)]}
            real, f.router._transports[0] = f.router._transports[0], Exploding()
            status, response = client.rpc(frame)
            assert status == 500
            assert response["ok"] is False and response["v"] == PROTOCOL_VERSION
            assert response["error"]["code"] == "internal"
            assert response["error"]["message"] == "RuntimeError: scripted bug"
            f.router._transports[0] = real
            status, response = client.rpc(frame)
            assert status == 200
            assert [item["decision"]["job"] for item in response["results"]] == list(range(1, 7))
            assert client.transport.opened == 1  # the 500 kept the connection
            assert 'router_requests_total{outcome="internal",type="batch"} 1' in (
                f.router.prometheus_text()
            )
            client.close()
        finally:
            server.stop()
            f.stop()

    def test_stop_marks_the_router_draining(self):
        f = Fleet(2)
        server = RouterServer(f.router, port=0).start()
        assert server.stop() is True
        assert f.router.draining is True
        f.stop()
