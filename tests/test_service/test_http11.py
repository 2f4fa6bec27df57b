"""The HTTP/1.1 codec: round trips, limits, hostile bytes, stdlib interop."""

import ast
import http.client
import json
import pathlib
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service
from repro.service import http11
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.service.http11 import HttpError, Reader
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import AdmissionService, ServiceServer
from repro.service.transport import Transport


def reader_over(data: bytes, cuts=()) -> Reader:
    """A reader whose ``recv`` hands out ``data`` cut at the given sizes."""
    pieces, pos = [], 0
    for cut in cuts:
        pieces.append(data[pos:pos + cut])
        pos += cut
    pieces.append(data[pos:])
    chunks = iter([piece for piece in pieces if piece])
    return Reader(lambda n: next(chunks, b""))


targets = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=40
).map(lambda tail: "/" + tail)
bodies = st.binary(max_size=300)
cuts = st.lists(st.integers(1, 60), max_size=30)
statuses = st.integers(200, 599).filter(lambda s: s not in (204, 304))


class TestRoundTrip:
    @given(
        st.lists(st.tuples(st.sampled_from(http11.METHODS), targets,
                           st.none() | bodies), min_size=1, max_size=2),
        cuts,
    )
    def test_requests_survive_any_segmentation(self, messages, cuts):
        # One or two pipelined requests in one byte stream, delivered in
        # arbitrary recv-sized pieces.
        wire = b"".join(
            http11.encode_request(method, target, "127.0.0.1:8765", body)
            for method, target, body in messages
        )
        reader = reader_over(wire, cuts)
        for method, target, body in messages:
            request = http11.read_request(reader)
            assert (request.method, request.target) == (method, target)
            assert request.keep_alive
            assert request.headers["host"] == "127.0.0.1:8765"
            if body is None:
                assert request.content_length is None
            else:
                assert request.content_length == len(body)
                assert request.headers["content-type"] == "application/json"
                assert reader.read(len(body)) == body
        assert http11.read_request(reader) is None
        assert not reader.pending

    @given(
        st.lists(st.tuples(statuses, bodies, st.none() | st.floats(0.01, 1e6)),
                 min_size=1, max_size=2),
        st.booleans(),
        cuts,
    )
    def test_responses_survive_any_segmentation(self, messages, close, cuts):
        wire = b"".join(
            http11.encode_response(status, body, "application/json",
                                   retry_after, close=close)
            for status, body, retry_after in messages
        )
        reader = reader_over(wire, cuts)
        for status, body, _ in messages:
            assert http11.read_response(reader) == (status, body, close)
        assert not reader.pending

    def test_a_large_body_is_collected_across_many_recvs(self):
        body = bytes(range(256)) * 1000
        wire = http11.encode_response(200, body, "text/plain")
        reader = reader_over(wire, [1000] * 200)
        assert http11.read_response(reader) == (200, body, False)


class TestFuzz:
    """Whatever arrives, only the codec's own typed error may escape."""

    hostile = st.binary(max_size=400) | st.builds(
        # Valid heads with junk spliced in reach deeper than pure noise.
        lambda head, junk, at: head[:at % (len(head) + 1)] + junk
        + head[at % (len(head) + 1):],
        st.sampled_from([
            http11.encode_request("POST", "/v1/rpc", "h:1", b'{"v":1}'),
            http11.encode_request("GET", "/healthz", "h:1"),
            http11.encode_response(200, b"{}", "application/json"),
            http11.encode_response(503, b"{}", "application/json", 1.5, close=True),
            b"HTTP/1.0 200 OK\r\nServer: x\r\n\r\nbody-to-eof",
        ]),
        st.binary(max_size=12),
        st.integers(0, 400),
    )

    @given(hostile, cuts)
    @settings(max_examples=300)
    def test_read_request(self, data, cuts):
        reader = reader_over(data, cuts)
        try:
            request = http11.read_request(reader)
            if request is not None and request.content_length:
                reader.read(min(request.content_length, 1 << 20))
        except HttpError as exc:
            assert 400 <= exc.status < 600 and exc.code and exc.message

    @given(hostile, cuts)
    @settings(max_examples=300)
    def test_read_response(self, data, cuts):
        try:
            response = http11.read_response(reader_over(data, cuts))
            assert 200 <= response.status <= 999
        except HttpError:
            pass


def request_error(raw: bytes) -> HttpError:
    with pytest.raises(HttpError) as excinfo:
        http11.read_request(reader_over(raw))
    return excinfo.value


def head(*header_lines: bytes, line: bytes = b"POST /v1/rpc HTTP/1.1") -> bytes:
    return b"\r\n".join((line,) + header_lines) + b"\r\n\r\n"


class TestReadRequest:
    def test_header_names_are_lowercased_and_values_stripped(self):
        request = http11.read_request(reader_over(head(
            b"Content-LENGTH:  7\t", b"X-Trace:a", b"x-trace: b", b"Empty:",
        )))
        assert request.content_length == 7
        assert request.headers == {
            "content-length": "7", "x-trace": "a, b", "empty": "",
        }

    @pytest.mark.parametrize("value", [
        b"-1", b"-5", b"5_0", b"+2", b"", b"0x10", b"1 2", b"1.0", b"\xb2",
        "٣".encode("utf-8"),
    ])
    def test_content_length_must_be_ascii_digits(self, value):
        exc = request_error(head(b"Content-Length: " + value))
        assert (exc.status, exc.code) == (400, "bad_json")
        assert "Content-Length" in exc.message

    def test_repeated_content_length_is_refused_even_when_equal(self):
        for second in (b"6", b"5"):
            exc = request_error(head(b"Content-Length: 5",
                                     b"Content-Length: " + second))
            assert (exc.status, exc.code) == (400, "bad_json")

    def test_content_length_beyond_any_real_body(self):
        exc = request_error(head(b"Content-Length: " + b"9" * 5000))
        assert (exc.status, exc.code) == (413, "too_large")

    def test_transfer_encoding_is_refused(self):
        exc = request_error(head(b"Transfer-Encoding: chunked"))
        assert (exc.status, exc.code) == (501, "invalid_field")

    @pytest.mark.parametrize("version, connection, keep_alive", [
        (b"1.1", None, True),
        (b"1.1", b"close", False),
        (b"1.1", b"Keep-Alive, Close", False),
        (b"1.0", None, False),
        (b"1.0", b"Keep-Alive", True),
        (b"1.0", b"close", False),
    ])
    def test_persistence_rules(self, version, connection, keep_alive):
        headers = (b"Connection: " + connection,) if connection else ()
        request = http11.read_request(reader_over(
            head(*headers, line=b"GET /healthz HTTP/" + version)
        ))
        assert request.keep_alive is keep_alive

    def test_line_and_header_limits(self):
        fits = b"GET /" + b"a" * (http11.MAX_LINE - 16) + b" HTTP/1.1"
        assert len(fits) + 2 == http11.MAX_LINE
        assert http11.read_request(reader_over(head(line=fits))) is not None
        exc = request_error(head(line=fits.replace(b"/a", b"/aa")))
        assert (exc.status, exc.code) == (414, "too_large")

        exc = request_error(head(b"X-Pad: " + b"a" * http11.MAX_LINE))
        assert (exc.status, exc.code) == (431, "too_large")

        fields = [b"X-%d: v" % i for i in range(http11.MAX_HEADERS)]
        assert http11.read_request(reader_over(head(*fields))) is not None
        exc = request_error(head(*fields, b"X-Straw: v"))
        assert (exc.status, exc.code) == (431, "too_large")

    def test_eof_between_requests_is_not_an_error_but_inside_one_is(self):
        assert http11.read_request(reader_over(b"")) is None
        for cut in (b"POST /v1/r", b"POST /v1/rpc HTTP/1.1\r\nContent-Le",
                    b"POST /v1/rpc HTTP/1.1\r\nContent-Length: 2\r\n"):
            assert "connection closed" in request_error(cut).message
        reader = reader_over(head(b"Content-Length: 9") + b"{}")
        assert http11.read_request(reader).content_length == 9
        with pytest.raises(HttpError, match="2 of 9 body bytes"):
            reader.read(9)


class TestEncode:
    def test_response_is_one_object_with_exactly_these_headers(self):
        wire = http11.encode_response(
            503, b'{"ok":false}', "application/json; charset=utf-8",
            retry_after=1.2, close=True,
        )
        assert wire == (
            b"HTTP/1.1 503 Service Unavailable\r\n"
            b"Content-Type: application/json; charset=utf-8\r\n"
            b"Content-Length: 12\r\n"
            b"Retry-After: 2\r\n"
            b"Connection: close\r\n"
            b'\r\n{"ok":false}'
        )
        assert http11.encode_response(200, b"", "text/plain") == (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
            b"Content-Length: 0\r\n\r\n"
        )

    def test_retry_after_never_rounds_to_zero(self):
        assert b"Retry-After: 1\r\n" in http11.encode_response(
            503, b"", "text/plain", retry_after=0.01
        )

    def test_request_wire_form(self):
        assert http11.encode_request("GET", "/healthz", "10.0.0.1:80") == (
            b"GET /healthz HTTP/1.1\r\nHost: 10.0.0.1:80\r\n\r\n"
        )
        assert http11.encode_request("POST", "/v1/rpc", "h", b"{}") == (
            b"POST /v1/rpc HTTP/1.1\r\nHost: h\r\n"
            b"Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
        )

    @pytest.mark.parametrize("method, target, host", [
        ("DELETE", "/v1/rpc", "h"),
        ("get", "/healthz", "h"),
        ("GET", "/a b", "h"),
        ("GET", "/a\r\nX-Injected: 1", "h"),
        ("GET", "", "h"),
        ("GET", "/café", "h"),
        ("GET", "/healthz", "h\r\nX-Injected: 1"),
    ])
    def test_request_refuses_what_it_could_not_parse_back(
        self, method, target, host
    ):
        with pytest.raises(ValueError):
            http11.encode_request(method, target, host)


class TestReadResponse:
    def test_body_runs_to_eof_without_content_length(self):
        raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil the end"
        assert http11.read_response(reader_over(raw, [20, 20])) == (
            200, b"until the end", True
        )

    def test_http10_closes_unless_it_says_keep_alive(self):
        raw = b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n%s\r\nok"
        assert http11.read_response(reader_over(raw % b"")).will_close
        assert not http11.read_response(
            reader_over(raw % b"Connection: keep-alive\r\n")
        ).will_close

    def test_bodyless_statuses_do_not_wait_for_eof(self):
        reader = reader_over(b"HTTP/1.1 204 No Content\r\n\r\nHTTP/1.1 200")
        assert http11.read_response(reader) == (204, b"", False)
        assert reader.pending

    @pytest.mark.parametrize("raw, match", [
        (b"", "closed before the response"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", "5 of 10"),
        (b"HTTP/1.1 200 OK\r\nContent-Len", "closed inside the header"),
        (b"HTTP/1.1 100 Continue\r\n\r\n", "interim"),
        (b"HTTP/2 200\r\n\r\n", "malformed status line"),
        (b"HTTP/1.1 20 OK\r\n\r\n", "malformed status line"),
        (b"<html>not http</html>\n", "malformed status line"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
         "Transfer-Encoding"),
        (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "Content-Length"),
    ])
    def test_broken_framing_is_the_typed_error(self, raw, match):
        with pytest.raises(HttpError, match=match):
            http11.read_response(reader_over(raw))


# -- interop with the stdlib, both ways ---------------------------------------

@pytest.fixture
def server():
    engine = AdmissionEngine(EngineConfig(policy="librarisk", num_nodes=4, rating=1.0))
    srv = ServiceServer(AdmissionService(engine), port=0).start()
    yield srv
    srv.stop()


class TestStdlibClientAgainstOurServer:
    STATS = json.dumps({"v": PROTOCOL_VERSION, "type": "stats"})

    def test_http11_client_keeps_the_connection(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            for _ in range(3):
                conn.request("POST", "/v1/rpc", body=self.STATS)
                response = conn.getresponse()
                assert response.status == 200 and response.version == 11
                assert not response.will_close
                assert response.getheader("Date") is None
                assert json.loads(response.read())["ok"]
            assert len(server._httpd.alive_handlers()) == 1
        finally:
            conn.close()

    def test_http10_request_is_answered_and_the_connection_ended(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        conn._http_vsn, conn._http_vsn_str = 10, "HTTP/1.0"
        try:
            conn.request("POST", "/v1/rpc", body=self.STATS)
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert response.will_close
            assert json.loads(response.read())["ok"]
        finally:
            conn.close()


class _StockHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def do_GET(self):  # noqa: N802 (stdlib naming)
        if self.path == "/missing":
            self.send_error(404, "nothing here")  # the stdlib's own HTML page
            return
        self.send_response(200)  # adds Server and Date
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"ok")


class TestOurTransportAgainstStdlibServer:
    def test_stock_responses_and_error_pages(self):
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StockHandler)
        httpd.daemon_threads = True
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            transport = Transport(f"http://127.0.0.1:{httpd.server_address[1]}")
            for _ in range(3):
                assert transport.request("GET", "/") == (200, b"ok")
            assert transport.opened == 1
            # send_error announces ``Connection: close``: read, not pooled.
            status, body = transport.request("GET", "/missing")
            assert status == 404 and b"nothing here" in body
            assert transport._idle == []
            assert transport.request("GET", "/") == (200, b"ok")
            assert transport.opened == 2
            transport.close()
        finally:
            httpd.shutdown()
            httpd.server_close()


def test_no_stdlib_http_stack_left_in_the_service_package():
    banned = ("http.server", "http.client", "urllib")
    offenders = []
    for path in pathlib.Path(repro.service.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            offenders += [
                f"{path.name}: {name}" for name in names
                if any(name == b or name.startswith(b + ".") for b in banned)
            ]
    assert offenders == []
