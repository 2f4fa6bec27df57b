"""Contract tests for the pooled keep-alive transport and its callers."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.faults import DropRequest, FaultInjector, FaultSpec
from repro.service.loadgen import LoadGenerator, ServiceClient
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import AdmissionService, ServiceServer
from repro.service.sharding import ShardRouter
from repro.service.sharding.breaker import CLOSED
from repro.service.transport import MAX_IDLE, Transport, TransportError
from tests.conftest import make_job

CONFIG = EngineConfig(policy="librarisk", num_nodes=4, rating=1.0)


def make_server(port: int = 0, **kwargs) -> ServiceServer:
    service = AdmissionService(AdmissionEngine(CONFIG), **kwargs)
    return ServiceServer(service, port=port).start()


def submit(job_id: int) -> dict:
    return {
        "v": PROTOCOL_VERSION, "type": "submit",
        "job": {
            "id": job_id, "submit_time": 0.0, "runtime": 10.0,
            "estimated_runtime": 10.0, "numproc": 1, "deadline": 1000.0,
        },
    }


class DropNth(FaultInjector):
    """Drops exactly the ``n``-th request, deterministically."""

    def __init__(self, n: int) -> None:
        super().__init__(FaultSpec())
        self.n = n

    def on_request(self) -> None:
        self.stats.requests += 1
        if self.stats.requests == self.n:
            raise DropRequest("scripted drop")


class _TwoSegmentHandler(BaseHTTPRequestHandler):
    """The benchmark stub shard's handler: HTTP/1.1 keep-alive, headers
    and body written as two unbuffered sends, Nagle left on."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def _send(self, payload):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 (stdlib naming)
        self._send({"status": "ok"})

    def do_POST(self):  # noqa: N802 (stdlib naming)
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self._send({"v": 1, "ok": True, "type": "decision",
                    "decision": {"job": request["job"]["id"], "outcome": "accepted"}})


class _CloseHandler(_TwoSegmentHandler):
    """An HTTP/1.0 peer: every response ends the connection."""

    protocol_version = "HTTP/1.0"


class _TruncatingHandler(_TwoSegmentHandler):
    """Promises 100 body bytes, writes three and hangs up."""

    def _send(self, payload):
        self.send_response(200)
        self.send_header("Content-Length", "100")
        self.end_headers()
        self.wfile.write(b"abc")
        self.close_connection = True


@pytest.fixture
def peer(request):
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), request.param)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


class TestPooling:
    def test_sequential_requests_share_one_connection(self):
        server = make_server()
        try:
            transport = Transport(server.url, timeout=5.0)
            for job_id in range(1, 11):
                status, raw = transport.request(
                    "POST", "/v1/rpc", json.dumps(submit(job_id)).encode()
                )
                assert status == 200 and json.loads(raw)["ok"]
            assert transport.request("GET", "/healthz")[0] == 200
            assert transport.opened == 1
            transport.close()
        finally:
            assert server.stop() is True

    def test_http_error_statuses_are_returned_and_keep_the_connection(self):
        server = make_server()
        try:
            transport = Transport(server.url, timeout=5.0)
            status, raw = transport.request("GET", "/nope")
            assert status == 404 and json.loads(raw)["error"]["code"] == "not_found"
            assert transport.request("GET", "/healthz")[0] == 200
            assert transport.opened == 1
            transport.close()
        finally:
            server.stop()

    def test_refused_connection_is_a_transport_error(self):
        server = make_server()
        url = server.url
        server.stop()
        with pytest.raises(TransportError, match="ConnectionRefusedError"):
            Transport(url, timeout=1.0).request("GET", "/healthz")

    def test_rejects_non_http_urls(self):
        for bad in ("127.0.0.1:80", "ftp://host", "http://"):
            with pytest.raises(ValueError, match="http://host:port"):
                Transport(bad)

    def test_idle_pool_is_bounded(self):
        server = make_server()
        try:
            transport = Transport(server.url, timeout=5.0)
            with server.service._engine_lock:  # healthz waits here: all overlap
                threads = [
                    threading.Thread(target=transport.request, args=("GET", "/healthz"))
                    for _ in range(MAX_IDLE + 4)
                ]
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 5.0
                while transport.opened < MAX_IDLE + 4 and time.monotonic() < deadline:
                    time.sleep(0.01)
            for t in threads:
                t.join(timeout=5.0)
                assert not t.is_alive()
            assert transport.opened == MAX_IDLE + 4
            assert len(transport._idle) == MAX_IDLE
            transport.close()
            assert transport._idle == []
        finally:
            server.stop()


class TestFailureContract:
    def test_dropped_request_is_status_zero_and_never_resent(self):
        faults = DropNth(2)
        server = make_server(faults=faults)
        try:
            client = ServiceClient(server.url, timeout=5.0)
            assert client.rpc(submit(1))[0] == 200
            assert client.transport.opened == 1

            status, response = client.rpc(submit(2))
            assert status == 0
            assert response["error"]["code"] == "unavailable"
            assert client.transport._idle == []  # the broken socket is gone

            status, response = client.rpc(submit(3))
            assert status == 200 and response["ok"]
            assert client.transport.opened == 2
            # Three calls, three arrivals: the dropped submit was not
            # replayed behind the caller's back, so job 2 never existed.
            assert faults.stats.requests == 3
            assert client.query(2)[0] == 404
            client.close()
        finally:
            server.stop()

    def test_restarted_peer_is_detected_before_the_send(self):
        first = make_server()
        port = first.port
        router = ShardRouter(CONFIG, [first.url], forward_retries=0)
        try:
            body = json.dumps(submit(1)).encode()
            assert router.handle(body)[0] == 200
            assert first.stop() is True  # pooled socket now holds an EOF
            second = make_server(port=port)
            try:
                status, response = router.handle(json.dumps(submit(2)).encode())
                assert status == 200 and response["ok"], response
                assert router._transports[0].opened == 2
                snapshot = router.breakers[0].snapshot()
                assert snapshot["state"] == CLOSED
                assert snapshot["consecutive_failures"] == 0
                assert "router_forward_errors_total" not in router.prometheus_text()
                # Same check from the plain client's side.
                client = ServiceClient(second.url, timeout=5.0)
                assert client.healthy()
            finally:
                second.stop()
            third = make_server(port=port)
            try:
                assert client.rpc(submit(3))[0] == 200
                assert client.transport.opened == 2
                client.close()
            finally:
                third.stop()
        finally:
            router.close()

    @pytest.mark.parametrize("peer", [_CloseHandler], indirect=True)
    def test_closing_peer_is_never_pooled(self, peer):
        client = ServiceClient(peer, timeout=5.0)
        for job_id in range(1, 6):
            assert client.rpc(submit(job_id))[0] == 200
            assert client.transport._idle == []
        assert client.transport.opened == 5

    def test_draining_server_sheds_the_pooled_socket(self):
        server = make_server()
        try:
            client = ServiceClient(server.url, timeout=5.0)
            assert client.healthy()
            server.service.draining = True
            status, response = client.rpc(submit(1))
            assert status == 503 and response["error"]["code"] == "shutting_down"
            assert client.transport._idle == []
        finally:
            server.stop()


class TestSendReceive:
    """``request`` is ``receive(send(...))``; the router calls the halves apart."""

    @pytest.mark.parametrize("peer", [_TwoSegmentHandler, _CloseHandler], indirect=True)
    def test_request_equals_receive_of_send(self, peer):
        transport = Transport(peer, timeout=5.0)
        body = json.dumps(submit(7)).encode()
        for method, path, payload in (("POST", "/v1/rpc", body), ("GET", "/healthz", None)):
            whole = transport.request(method, path, payload)
            halves = transport.receive(transport.send(method, path, payload))
            assert halves == whole and whole[0] == 200
        transport.close()

    @pytest.mark.parametrize("peer", [_TwoSegmentHandler], indirect=True)
    def test_two_sends_ride_two_connections_and_both_are_pooled(self, peer):
        transport = Transport(peer, timeout=5.0)
        first = transport.send("POST", "/v1/rpc", json.dumps(submit(1)).encode())
        second = transport.send("POST", "/v1/rpc", json.dumps(submit(2)).encode())
        assert transport.opened == 2 and first[0] is not second[0]
        for job_id, sent in ((1, first), (2, second)):
            status, raw = transport.receive(sent)
            assert status == 200 and json.loads(raw)["decision"]["job"] == job_id
        assert len(transport._idle) == 2
        assert transport.request("GET", "/healthz")[0] == 200
        assert transport.opened == 2  # the third exchange dialled nothing
        transport.close()

    @pytest.mark.parametrize("peer", [_TruncatingHandler], indirect=True)
    def test_failed_receive_closes_the_socket_and_pools_nothing(self, peer):
        transport = Transport(peer, timeout=5.0)
        sent = transport.send("GET", "/healthz")
        with pytest.raises(TransportError):
            transport.receive(sent)
        assert sent[0].fileno() == -1
        assert transport._idle == []

    def test_receive_on_a_spent_budget_does_not_wait_again(self):
        # Accepts in the kernel backlog, never answers.
        with socket.create_server(("127.0.0.1", 0)) as hung:
            transport = Transport(f"http://127.0.0.1:{hung.getsockname()[1]}", timeout=0.2)
            sent = transport.send("GET", "/healthz")
            time.sleep(0.25)
            t0 = time.perf_counter()
            with pytest.raises(TransportError, match="timed out"):
                transport.receive(sent)
            assert time.perf_counter() - t0 < 0.1
            assert sent[0].fileno() == -1 and transport._idle == []


class TestNoDelayedAckStall:
    @pytest.mark.parametrize("peer", [_TwoSegmentHandler], indirect=True)
    def test_two_segment_peer_answers_without_the_40ms_stall(self, peer):
        client = ServiceClient(peer, timeout=5.0)
        client.rpc(submit(0))  # dial + warm up outside the timed loop
        t0 = time.perf_counter()
        for job_id in range(1, 21):
            assert client.rpc(submit(job_id))[0] == 200
        elapsed = time.perf_counter() - t0
        assert client.transport.opened == 1
        client.close()
        # 20 stalled exchanges would take >= 0.8 s.
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"


class TestSharedClient:
    def test_four_senders_open_at_most_four_connections(self):
        server = make_server()
        try:
            client = ServiceClient(server.url, timeout=5.0)
            jobs = [
                make_job(runtime=5.0, deadline=1000.0, submit=0.0, job_id=i + 1)
                for i in range(4 * 15)
            ]
            report = LoadGenerator(client, jobs, speedup=1e9, workers=4).run()
            assert report.requests == 60
            assert report.errors == 0
            assert sorted(r.job_id for r in report.results) == list(range(1, 61))
            assert 1 <= client.transport.opened <= 4
            client.close()
        finally:
            assert server.stop() is True
