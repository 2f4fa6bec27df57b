"""Tests for the HTTP service front-end and its backpressure limits."""

import http.client
import json
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service import http11, protocol
from repro.service.loadgen import ServiceClient
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import AdmissionService, ServiceServer


def make_service(**kwargs) -> AdmissionService:
    engine = AdmissionEngine(EngineConfig(policy="librarisk", num_nodes=4, rating=1.0))
    return AdmissionService(engine, **kwargs)


@pytest.fixture
def server():
    srv = ServiceServer(make_service(), port=0).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=5.0)


def submit_payload(job_id: int, submit_time: float = 0.0) -> dict:
    return {
        "id": job_id, "submit_time": submit_time, "runtime": 10.0,
        "estimated_runtime": 10.0, "numproc": 1, "deadline": 100.0,
    }


#: Nesting past every supported decoder's limit yet inside the 64 KiB
#: request limit.  3.10 and 3.11 stop at the recursion limit (1000);
#: from 3.12 the C recursion limit counts instead, 10,000 on Linux.
DEEP = 30_000
DEEP_ARRAY = b"[" * DEEP + b"]" * DEEP
DEEP_JOB = b'{"v":1,"type":"submit","job":' + DEEP_ARRAY + b"}"

#: Bodies inside the size limit that ``parse_request`` must refuse as a
#: typed 400, not let escape as a 500 ``internal``:
#: ``(body, code, message prefix)``.
HOSTILE_BODIES = [
    pytest.param(b'{"v":1,"type":[1]}', "unknown_type",
                 "unknown request type [1]; expected one of submit,",
                 id="type-array"),
    pytest.param(b'{"v":1,"type":{}}', "unknown_type",
                 "unknown request type {}; expected one of submit,",
                 id="type-object"),
    pytest.param(DEEP_ARRAY, "bad_json",
                 "invalid JSON: maximum recursion depth exceeded",
                 id="deep-array"),
    pytest.param(DEEP_JOB, "bad_json",
                 "invalid JSON: maximum recursion depth exceeded",
                 id="deep-job"),
]


def keepalive_burst(server, rounds: int = 20) -> float:
    """``rounds`` POST+GET pairs on ONE raw keep-alive connection.

    Returns the wall time of the burst and asserts that exactly one
    handler thread served all of it.
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
    body = json.dumps({"v": PROTOCOL_VERSION, "type": "stats"})
    try:
        conn.request("GET", "/healthz")  # dial + first handler outside the clock
        conn.getresponse().read()
        t0 = time.perf_counter()
        for _ in range(rounds):
            conn.request("POST", "/v1/rpc", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 200 and json.loads(response.read())["ok"]
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200 and not response.will_close
            response.read()
        elapsed = time.perf_counter() - t0
        assert len(server._httpd.alive_handlers()) == 1
    finally:
        conn.close()
    return elapsed


class TestKeepAlive:
    def test_burst_on_one_connection_has_no_delayed_ack_stall(self, server):
        # Regression: headers and body used to leave as two unbuffered
        # sends with Nagle on, so every keep-alive response waited ~40 ms
        # for the client's delayed ACK (this burst took ~0.9 s).
        elapsed = keepalive_burst(server)
        assert elapsed < 0.4, f"40 keep-alive requests took {elapsed:.3f}s"


def raw_exchange(server, data: bytes):
    """Send raw bytes on a fresh connection; the (stdlib-parsed) answer."""
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        sock.sendall(data)
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
    return response, payload


@pytest.fixture
def handler_errors(server, monkeypatch):
    """Exceptions that escaped a handler thread into socketserver."""
    escaped: list = []
    monkeypatch.setattr(
        server._httpd, "handle_error",
        lambda request, address: escaped.append(sys.exc_info()[1]),
    )
    return escaped


STATS_BODY = b'{"v":1,"type":"stats"}'


class TestHostileBytes:
    """Refusals below the protocol layer are still typed JSON envelopes."""

    @pytest.mark.parametrize("headers", [
        # -1 used to park the handler in read(-1) until the peer hung up,
        # -5 raised ValueError in the handler thread, 5_0 was read as 50.
        pytest.param(b"Content-Length: -1", id="minus-one"),
        pytest.param(b"Content-Length: -5", id="minus-five"),
        pytest.param(b"Content-Length: 5_0", id="underscore"),
        pytest.param(b"Content-Length: +2", id="plus"),
        pytest.param(b"Content-Length:", id="empty"),
        pytest.param(b"Content-Length: 22\r\nContent-Length: 2", id="two-differing"),
    ])
    def test_content_length_is_ascii_digits_or_a_typed_400(
        self, server, handler_errors, headers
    ):
        response, payload = raw_exchange(
            server, b"POST /v1/rpc HTTP/1.1\r\n" + headers + b"\r\n\r\n" + STATS_BODY
        )
        assert response.status == 400
        assert payload["ok"] is False and payload["error"]["code"] == "bad_json"
        assert "Content-Length" in payload["error"]["message"]
        assert response.getheader("Connection") == "close"
        assert handler_errors == []
        assert server.service.engine.stats()["submitted"] == 0

    @pytest.mark.parametrize("raw, status, code", [
        pytest.param(b"\x16\x03\x01\x02\x00\r\n\r\n", 400, "bad_json", id="tls-hello"),
        pytest.param(b"GET /healthz\r\n\r\n", 400, "bad_json", id="no-version"),
        pytest.param(b"GET  /healthz HTTP/1.1\r\n\r\n", 400, "bad_json",
                     id="two-spaces"),
        pytest.param(b"GET /healthz HTTP/1.1\n\n", 400, "bad_json", id="bare-lf"),
        pytest.param(b"GET /healthz HTTP/2.0\r\n\r\n", 505, "bad_version",
                     id="http2"),
        pytest.param(b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n", 414, "too_large",
                     id="long-request-line"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 9000 + b"\r\n\r\n",
                     431, "too_large", id="long-header-line"),
        pytest.param(b"GET /healthz HTTP/1.1\r\n" + b"X-N: 1\r\n" * 101 + b"\r\n",
                     431, "too_large", id="101-headers"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n", 400, "bad_json",
                     id="no-colon"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nSpaced : v\r\n\r\n", 400, "bad_json",
                     id="space-before-colon"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n", 400,
                     "bad_json", id="obs-fold"),
        pytest.param(b"DELETE /v1/rpc HTTP/1.1\r\n\r\n", 501, "unknown_type",
                     id="method"),
        pytest.param(b"POST /v1/rpc HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b"16\r\n" + STATS_BODY + b"\r\n0\r\n\r\n", 501, "invalid_field",
                     id="chunked"),
        pytest.param(b"POST /v1/rpc HTTP/1.1\r\n"
                     b"Content-Length: 99999999999999999999\r\n\r\n", 413, "too_large",
                     id="20-digit-length"),
    ])
    def test_malformed_requests_get_a_typed_envelope_and_a_close(
        self, server, handler_errors, raw, status, code
    ):
        response, payload = raw_exchange(server, raw)
        assert response.status == status
        assert payload == protocol.decode_response(status, protocol.encode(payload))
        assert payload["ok"] is False and payload["error"]["code"] == code
        assert response.getheader("Content-Type").startswith("application/json")
        assert response.getheader("Connection") == "close"
        assert handler_errors == []
        # The thread is gone and the server still serves.
        deadline = time.monotonic() + 5.0
        while server._httpd.alive_handlers() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._httpd.alive_handlers() == []
        assert ServiceClient(server.url, timeout=5.0).healthy()

    def test_truncated_body_and_vanishing_peers_do_not_escape(
        self, server, handler_errors
    ):
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(b"POST /v1/rpc HTTP/1.1\r\nContent-Length: 22\r\n\r\n{")
            sock.shutdown(socket.SHUT_WR)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 400
            assert "1 of 22 body bytes" in json.loads(response.read())["error"]["message"]
        # Reset while the server is answering: nothing to assert but silence.
        sock = socket.create_connection((server.host, server.port), timeout=5.0)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
        sock.close()
        assert ServiceClient(server.url, timeout=5.0).healthy()
        assert handler_errors == []

    def test_refused_posts_end_the_connection_with_the_body_unread(self, server):
        # 404/411/413 answer before reading the body; what follows on the
        # connection must not be parsed as a request.
        for head, status in (
            (b"POST /nope HTTP/1.1\r\nContent-Length: 22\r\n\r\n", 404),
            (b"POST /v1/rpc HTTP/1.1\r\n\r\n", 411),
            (b"POST /v1/rpc HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", 413),
        ):
            response, payload = raw_exchange(server, head + STATS_BODY)
            assert response.status == status and payload["ok"] is False
            assert response.getheader("Connection") == "close"

    def test_get_with_a_body_is_answered_then_closed(self, server):
        response, payload = raw_exchange(
            server,
            b"GET /healthz HTTP/1.1\r\nContent-Length: 22\r\n\r\n" + STATS_BODY,
        )
        assert response.status == 200 and payload["status"] == "ok"
        assert response.getheader("Connection") == "close"

    def test_pipelined_requests_are_answered_in_order(self, server):
        one = (b"POST /v1/rpc HTTP/1.1\r\nContent-Length: 22\r\n\r\n" + STATS_BODY)
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(one + b"GET /healthz HTTP/1.1\r\n\r\n" + one)
            reader = http11.Reader(sock.recv)
            kinds = [
                json.loads(http11.read_response(reader).body).get("type", "health")
                for _ in range(3)
            ]
        assert kinds == ["stats", "health", "stats"]


class TestEndpoints:
    def test_healthz(self, client):
        assert client.healthy()

    def test_submit_query_stats_drain(self, client):
        status, response = client.rpc(
            {"v": PROTOCOL_VERSION, "type": "submit", "job": submit_payload(1)}
        )
        assert status == 200
        assert response["decision"]["outcome"] == "accepted"

        status, response = client.query(1)
        assert status == 200
        assert response["job"]["id"] == 1

        status, response = client.stats()
        assert status == 200
        assert response["stats"]["submitted"] == 1

        status, response = client.drain()
        assert status == 200
        assert response["metrics"]["total_submitted"] == 1

    def test_query_unknown_job_is_404(self, client):
        status, response = client.query(999)
        assert status == 404
        assert response["error"]["code"] == "not_found"

    def test_out_of_order_submit_is_409(self, client):
        client.rpc({"v": PROTOCOL_VERSION, "type": "submit",
                    "job": submit_payload(1, submit_time=100.0)})
        status, response = client.rpc(
            {"v": PROTOCOL_VERSION, "type": "submit",
             "job": submit_payload(2, submit_time=5.0)}
        )
        assert status == 409
        assert response["error"]["code"] == "out_of_order"

    def test_conflicting_job_under_known_id_is_409(self, client):
        request = {"v": PROTOCOL_VERSION, "type": "submit", "job": submit_payload(7)}
        status, _ = client.rpc(request)
        assert status == 200
        request["job"] = {**submit_payload(7, submit_time=1.0), "runtime": 99.0}
        status, response = client.rpc(request)
        assert status == 409
        assert response["error"]["code"] == "conflict"

    def test_identical_resubmit_is_answered_idempotently(self, client, server):
        request = {"v": PROTOCOL_VERSION, "type": "submit", "job": submit_payload(8)}
        status, first = client.rpc(request)
        assert status == 200 and "duplicate" not in first
        # A retry arrives later; only submit_time may differ.
        request["job"] = submit_payload(8, submit_time=2.0)
        status, second = client.rpc(request)
        assert status == 200
        assert second["duplicate"] is True
        assert second["decision"] == first["decision"]
        dups = server.service.registry.get("service_submit_duplicates_total")
        assert dups is not None and dups.value == 1

    def test_bad_version_is_400(self, client):
        status, response = client.rpc({"v": 99, "type": "stats"})
        assert status == 400
        assert response["error"]["code"] == "bad_version"

    def test_unknown_path_is_404(self, server):
        request = urllib.request.Request(f"{server.url}/nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 404

    def test_stats_get_endpoint(self, server):
        with urllib.request.urlopen(f"{server.url}/v1/stats", timeout=5.0) as resp:
            payload = json.loads(resp.read())
        assert payload["ok"] is True
        assert payload["stats"]["submitted"] == 0

    def test_metrics_endpoint_exposes_latency_histogram(self, client, server):
        client.stats()
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=5.0) as resp:
            text = resp.read().decode()
        assert "service_request_seconds" in text
        assert 'type="stats"' in text

    def test_checkpoint_rpc_inline_and_to_path(self, client, tmp_path):
        client.rpc({"v": PROTOCOL_VERSION, "type": "submit",
                    "job": submit_payload(1)})
        status, response = client.checkpoint()
        assert status == 200
        assert response["snapshot"]["format"] == "repro-admission-engine"

        path = tmp_path / "server.ckpt.json"
        status, response = client.checkpoint(str(path))
        assert status == 200
        from repro.service import checkpoint as checkpoint_mod

        resumed = checkpoint_mod.load(str(path))
        assert resumed.query(1) is not None


class TestBackpressure:
    def test_oversized_request_is_413(self):
        server = ServiceServer(make_service(max_request_bytes=64), port=0).start()
        try:
            client = ServiceClient(server.url, timeout=5.0)
            big = {"v": PROTOCOL_VERSION, "type": "submit",
                   "job": {**submit_payload(1), "user": "x" * 200}}
            status, response = client.rpc(big)
            assert status == 413
            assert response["error"]["code"] == "too_large"
        finally:
            server.stop()

    def test_missing_content_length_is_411(self, server):
        # urllib always sets Content-Length for bytes bodies, so talk raw.
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            conn.putrequest("POST", "/v1/rpc", skip_accept_encoding=True)
            conn.putheader("Content-Type", "application/json")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 411
        finally:
            conn.close()

    def test_queue_depth_zero_sheds_everything(self):
        # max_inflight=0 makes shedding deterministic: every request is
        # over the limit, exercising the 503/overloaded path without races.
        server = ServiceServer(make_service(max_inflight=0), port=0).start()
        try:
            client = ServiceClient(server.url, timeout=5.0)
            status, response = client.stats()
            assert status == 503
            assert response["error"]["code"] == "overloaded"
            shed = server.service.registry.get("service_requests_shed_total")
            assert shed is not None and shed.value == 1
        finally:
            server.stop()

    def test_draining_service_refuses_requests(self):
        service = make_service()
        service.draining = True
        status, response = service.handle(b'{"v": 1, "type": "stats"}')
        assert status == 503
        assert response["error"]["code"] == "shutting_down"
        assert response["error"]["retry_after"] == service.retry_after

    def test_shed_response_carries_retry_after(self):
        service = make_service(max_inflight=0, retry_after=2.5)
        status, response = service.handle(b'{"v": 1, "type": "stats"}')
        assert status == 503
        assert response["error"]["code"] == "overloaded"
        assert response["error"]["retry_after"] == 2.5

    def test_retry_after_http_header_rounds_up(self):
        server = ServiceServer(
            make_service(max_inflight=0, retry_after=1.2), port=0
        ).start()
        try:
            body = json.dumps({"v": PROTOCOL_VERSION, "type": "stats"}).encode()
            request = urllib.request.Request(
                f"{server.url}/v1/rpc", data=body,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5.0)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "2"
        finally:
            server.stop()


class TestServiceDirect:
    """Request handling without sockets (fast paths and edge cases)."""

    def test_handle_records_metrics(self):
        service = make_service()
        status, _ = service.handle(
            json.dumps({"v": PROTOCOL_VERSION, "type": "stats"}).encode()
        )
        assert status == 200
        counter = service.registry.get(
            "service_requests_total", type="stats", outcome="ok"
        )
        assert counter is not None and counter.value == 1
        histogram = service.registry.get("service_request_seconds", type="stats")
        assert histogram is not None and histogram.count == 1

    def test_handle_maps_protocol_error(self):
        service = make_service()
        status, response = service.handle(b"garbage")
        assert status == 400
        assert response["error"]["code"] == "bad_json"
        counter = service.registry.get(
            "service_requests_total", type="invalid", outcome="bad_json"
        )
        assert counter is not None and counter.value == 1

    def test_advance_rejected_on_live_clock(self):
        from repro.service.clock import WallClock

        engine = AdmissionEngine(
            EngineConfig(num_nodes=2, rating=1.0), clock=WallClock(speedup=1e9)
        )
        service = AdmissionService(engine)
        status, response = service.handle(
            json.dumps({"v": 1, "type": "advance", "to": 10.0}).encode()
        )
        assert status == 400
        assert "virtual clock" in response["error"]["message"]

    def test_unexpected_exception_maps_to_500_internal(self):
        service = make_service()

        def boom():
            raise RuntimeError("policy invariant violated")

        service.engine.poll = boom
        status, response = service.handle(
            json.dumps({"v": PROTOCOL_VERSION, "type": "stats"}).encode()
        )
        assert status == 500
        assert response["error"]["code"] == "internal"
        assert "policy invariant violated" in response["error"]["message"]
        # The service survives: the next request is handled normally.
        service.engine.poll = lambda: 0
        status, _ = service.handle(
            json.dumps({"v": PROTOCOL_VERSION, "type": "stats"}).encode()
        )
        assert status == 200

    def test_integer_past_float_range_is_a_typed_400(self):
        service = make_service()
        payload = dict(submit_payload(1), estimated_runtime=10 ** 400)
        status, response = service.handle(json.dumps(
            {"v": PROTOCOL_VERSION, "type": "submit", "job": payload}
        ).encode())
        assert status == 400
        assert response["error"] == {
            "code": "invalid_field",
            "message": "job.estimated_runtime must be finite",
        }
        status, _ = service.handle(json.dumps(
            {"v": PROTOCOL_VERSION, "type": "submit", "job": submit_payload(1)}
        ).encode())
        assert status == 200

    def test_integer_literal_past_the_digit_limit_is_bad_json(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string digit limit")
        body = b'{"v":1,"type":"advance","to":' + b"7" * (limit + 1) + b"}"
        status, response = make_service().handle(body)
        assert status == 400
        assert response["error"]["code"] == "bad_json"

    @pytest.mark.parametrize("body, code, prefix", HOSTILE_BODIES)
    def test_hostile_body_is_a_typed_400(self, body, code, prefix):
        service = make_service()
        status, response = service.handle(body)
        assert (status, response["error"]["code"]) == (400, code)
        assert response["error"]["message"].startswith(prefix)
        counter = service.registry.get(
            "service_requests_total", type="invalid", outcome=code
        )
        assert counter is not None and counter.value == 1

    def test_validation_limits(self):
        with pytest.raises(ValueError, match="max_request_bytes"):
            make_service(max_request_bytes=0)
        with pytest.raises(ValueError, match="max_inflight"):
            make_service(max_inflight=-1)

    def test_checkpoint_on_exit(self, tmp_path):
        path = tmp_path / "exit.ckpt.json"
        service = make_service()
        server = ServiceServer(service, port=0, checkpoint_on_exit=str(path)).start()
        client = ServiceClient(server.url, timeout=5.0)
        client.rpc({"v": PROTOCOL_VERSION, "type": "submit",
                    "job": submit_payload(7)})
        server.stop()
        from repro.service import checkpoint as checkpoint_mod

        resumed = checkpoint_mod.load(str(path))
        assert resumed.query(7) is not None


class TestShutdown:
    def test_clean_stop_returns_true(self):
        server = ServiceServer(make_service(), port=0).start()
        assert server.stop() is True

    def test_stop_reports_wedged_worker_thread(self):
        class Wedged:
            """A thread-shaped object that never finishes joining."""

            name = "wedged-handler"

            def join(self, timeout=None):
                pass

            def is_alive(self):
                return True

        server = ServiceServer(make_service(), port=0).start()
        server._thread = Wedged()
        assert server.stop() is False

    def test_stop_reports_wedged_handler_thread(self):
        class Wedged:
            """A thread-shaped object that never finishes joining."""

            name = "wedged-handler"

            def join(self, timeout=None):
                pass

            def is_alive(self):
                return True

        server = ServiceServer(make_service(), port=0).start()
        server._httpd._handlers[socket.socket()] = Wedged()
        assert server.stop() is False

    def test_stop_with_an_idle_persistent_client_is_fast_and_clean(self):
        # A handler parked in readline() on an idle keep-alive connection
        # used to be joined for the full 5 s and reported as wedged.
        server = ServiceServer(make_service(), port=0).start()
        client = ServiceClient(server.url, timeout=5.0)
        assert client.healthy()
        assert len(server._httpd.alive_handlers()) == 1
        t0 = time.monotonic()
        assert server.stop() is True
        assert time.monotonic() - t0 < 1.0
        assert server._httpd.alive_handlers() == []
        assert client.rpc({"v": PROTOCOL_VERSION, "type": "stats"})[0] == 0

    def test_stop_answers_the_inflight_request_beside_an_idle_connection(self):
        service = make_service()
        server = ServiceServer(service, port=0).start()
        idle = ServiceClient(server.url, timeout=5.0)
        assert idle.healthy()

        conn = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
        service._engine_lock.acquire()  # hold the in-flight request hostage
        try:
            conn.request(
                "POST", "/v1/rpc",
                body=json.dumps({"v": PROTOCOL_VERSION, "type": "submit",
                                 "job": submit_payload(1)}),
                headers={"Content-Type": "application/json"},
            )
            deadline = time.monotonic() + 5.0
            while service._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service._inflight == 1
            stopped: list = []
            stopper = threading.Thread(
                target=lambda: stopped.append(server.stop()), daemon=True
            )
            stopper.start()
            # stop() half-closes both connections; only the idle one ends.
            deadline = time.monotonic() + 5.0
            while len(server._httpd.alive_handlers()) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server._httpd.alive_handlers()) == 1
        finally:
            service._engine_lock.release()
        response = conn.getresponse()
        payload = json.loads(response.read())
        stopper.join(timeout=10.0)
        conn.close()

        assert stopped == [True]
        assert response.status == 200 and payload["decision"]["job"] == 1
        # Answered while draining: the client is told to drop the socket.
        assert response.getheader("Connection") == "close"
        assert response.will_close

    def test_stop_waits_for_inflight_handler_before_closing_wal(self, tmp_path):
        # A handler blocked mid-request (here: on the engine lock) must
        # be joined before stop() closes the WAL, or its append would
        # land on a closed file and the acked record would be lost.
        import threading
        import time

        from repro.service.wal import WriteAheadLog, read_wal

        engine = AdmissionEngine(
            EngineConfig(policy="librarisk", num_nodes=4, rating=1.0)
        )
        wal = WriteAheadLog.open(
            str(tmp_path / "srv.log"), config=engine.config.as_dict(),
            fsync="none",
        )
        service = AdmissionService(engine, wal=wal)
        server = ServiceServer(service, port=0).start()
        client = ServiceClient(server.url, timeout=10.0)

        service._engine_lock.acquire()  # hold the in-flight request hostage
        result: list = []
        request = threading.Thread(
            target=lambda: result.append(
                client.rpc({"v": PROTOCOL_VERSION, "type": "submit",
                            "job": submit_payload(1)})
            ),
            daemon=True,
        )
        request.start()
        deadline = time.monotonic() + 5.0
        while service._inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)  # wait for the handler to pass admission checks
        assert service._inflight == 1

        stopped: list = []
        stopper = threading.Thread(
            target=lambda: stopped.append(server.stop()), daemon=True
        )
        stopper.start()
        time.sleep(0.2)  # stop() is now joining the blocked handler
        service._engine_lock.release()
        stopper.join(timeout=10.0)
        request.join(timeout=10.0)

        assert stopped == [True]
        status, _ = result[0]
        assert status == 200
        assert wal.closed
        records = read_wal(str(tmp_path / "srv.log")).records
        assert len(records) == 1 and records[0].req["job"]["id"] == 1

    def test_graceful_stop_flushes_and_closes_wal(self, tmp_path):
        from repro.service.wal import WriteAheadLog, read_wal

        engine = AdmissionEngine(
            EngineConfig(policy="librarisk", num_nodes=4, rating=1.0)
        )
        wal = WriteAheadLog.open(
            str(tmp_path / "srv.log"), config=engine.config.as_dict(),
            fsync="none",
        )
        service = AdmissionService(engine, wal=wal)
        server = ServiceServer(service, port=0).start()
        client = ServiceClient(server.url, timeout=5.0)
        client.rpc({"v": PROTOCOL_VERSION, "type": "submit",
                    "job": submit_payload(1)})
        assert server.stop() is True
        assert wal.closed
        result = read_wal(str(tmp_path / "srv.log"))
        assert len(result.records) == 1 and result.torn is None
