"""The HTTP/1.1 wire format of the service — the subset it speaks, no more.

One codec serves both ends: :class:`~repro.service.server.ServiceServer`
(and the router front-end) parse requests and build responses with it,
:class:`~repro.service.transport.Transport` builds requests and parses
responses with it.  The messages are small JSON bodies framed by
``Content-Length``, so the subset is deliberately narrow:

* methods ``GET`` and ``POST``, versions ``HTTP/1.0`` and ``HTTP/1.1``;
* lines end in CRLF, are at most :data:`MAX_LINE` bytes, and a head
  carries at most :data:`MAX_HEADERS` header fields;
* a header field is ``token ":" OWS value OWS`` on one line — no
  obs-fold continuation, no whitespace before the colon;
* bodies are framed by one ``Content-Length`` of ASCII digits (``int()``
  would also take ``-1``, ``+2``, ``5_0`` and surrounding whitespace);
  a repeated ``Content-Length`` and any ``Transfer-Encoding`` are
  refused, which leaves no second opinion on where a message ends;
* HTTP/1.1 connections persist unless ``Connection: close``; HTTP/1.0
  ones only with ``Connection: keep-alive``.

Everything else raises :class:`HttpError`, which names the status and
:class:`~repro.service.protocol.ErrorCode` a server should answer with,
so a refusal below the protocol layer is still a typed JSON envelope.
Header names are lower-cased; repeated fields are joined with ``", "``.
"""

from __future__ import annotations

import math
import re
from http import HTTPStatus
from typing import Callable, NamedTuple, Optional

from repro.service.protocol import ErrorCode

#: Longest accepted request, status or header line, CRLF included.
MAX_LINE = 8192
#: Most header fields accepted in one message head.
MAX_HEADERS = 100
#: The methods the service routes; nothing else is parsed or sent.
METHODS = ("GET", "POST")

_RECV_BYTES = 65536
# Content-Length values past this many digits cannot be a real body
# (and ``int()`` refuses strings of more than 4300 digits outright).
_MAX_LENGTH_DIGITS = 18

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_REQUEST_LINE = re.compile(rb"([!-~]+) ([!-~]+) HTTP/(\d)\.(\d)\r\n")
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) (\d{3})(?: [^\x00\r\n]*)?\r\n")
_HEADER = re.compile(rb"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):([^\x00\r\n]*)\r\n")
_PRINTABLE = re.compile(r"[!-~]+")


class HttpError(Exception):
    """Bytes that are not the HTTP/1.1 subset this module speaks.

    ``status`` and ``code`` are what a server answers the sender with;
    a client reading a response only needs the message.
    """

    def __init__(
        self, message: str, status: int = 400, code: str = ErrorCode.BAD_JSON
    ) -> None:
        super().__init__(message)
        self.message = message
        self.status = status
        self.code = code


class Request(NamedTuple):
    """One parsed request head; the body is still in the reader."""

    method: str
    target: str
    headers: dict[str, str]
    #: ``None`` when the request carries no ``Content-Length``.
    content_length: Optional[int]
    keep_alive: bool


class Response(NamedTuple):
    """One complete response."""

    status: int
    body: bytes
    #: The peer ends the connection after this response.
    will_close: bool


class Reader:
    """A read-ahead buffer over one connection's ``recv``.

    Bytes received past the end of one message stay buffered and start
    the next, so pipelined messages are never lost between calls.
    """

    __slots__ = ("_recv", "_buf")

    def __init__(self, recv: Callable[[int], bytes]) -> None:
        self._recv = recv
        self._buf = b""

    @property
    def pending(self) -> bool:
        """Received bytes no message has consumed yet."""
        return bool(self._buf)

    def readline(self, limit: int) -> bytes:
        """The next line through its LF, at most ``limit`` bytes.

        Without an LF the result is what the connection still held at
        EOF (possibly nothing), or the first ``limit`` bytes of a line
        that is too long.
        """
        buf = self._buf
        searched = 0
        while True:
            end = buf.find(b"\n", searched, limit) + 1
            if end or len(buf) >= limit:
                break
            searched = len(buf)
            chunk = self._recv(_RECV_BYTES)
            if not chunk:
                break
            buf += chunk
        cut = end or min(len(buf), limit)
        self._buf = buf[cut:]
        return buf[:cut]

    def read(self, n: int) -> bytes:
        """Exactly ``n`` body bytes."""
        buf = self._buf
        if len(buf) < n:
            chunks = [buf]
            have = len(buf)
            while have < n:
                chunk = self._recv(_RECV_BYTES)
                if not chunk:
                    raise HttpError(
                        f"connection closed after {have} of {n} body bytes"
                    )
                chunks.append(chunk)
                have += len(chunk)
            buf = b"".join(chunks)
        self._buf = buf[n:]
        return buf[:n]

    def read_to_eof(self) -> bytes:
        """Everything the peer sends before it closes the connection."""
        chunks = [self._buf]
        self._buf = b""
        while chunk := self._recv(_RECV_BYTES):
            chunks.append(chunk)
        return b"".join(chunks)


def _bad_line(line: bytes, what: str, too_long_status: int = 431) -> HttpError:
    """The error for a ``line`` that did not match its grammar."""
    if not line.endswith(b"\n"):
        if len(line) >= MAX_LINE:
            return HttpError(
                f"{what} longer than {MAX_LINE} bytes",
                too_long_status, ErrorCode.TOO_LARGE,
            )
        return HttpError(f"connection closed inside the {what}")
    return HttpError(f"malformed {what} {line[:80]!r}")


def _read_headers(reader: Reader) -> dict[str, str]:
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = reader.readline(MAX_LINE)
        if line == b"\r\n":
            return headers
        match = _HEADER.fullmatch(line)
        if match is None:
            if line[:1] in (b" ", b"\t"):
                raise HttpError("folded (obs-fold) header lines are not supported")
            raise _bad_line(line, "header line")
        name = match[1].decode("ascii").lower()
        value = match[2].strip(b" \t").decode("latin-1")
        if name in headers:
            if name == "content-length":
                raise HttpError("more than one Content-Length header")
            value = f"{headers[name]}, {value}"
        headers[name] = value
    raise HttpError(
        f"more than {MAX_HEADERS} header fields", 431, ErrorCode.TOO_LARGE
    )


def _framing(headers: dict[str, str], http10: bool) -> tuple[Optional[int], bool]:
    """``(content_length, persistent)`` of the message these headers open."""
    if "transfer-encoding" in headers:
        raise HttpError(
            "Transfer-Encoding is not supported; frame the body with "
            "Content-Length", 501, ErrorCode.INVALID_FIELD,
        )
    length: Optional[int] = None
    raw = headers.get("content-length")
    if raw is not None:
        if not (raw.isascii() and raw.isdigit()):
            raise HttpError(f"malformed Content-Length {raw[:40]!r}")
        if len(raw) > _MAX_LENGTH_DIGITS:
            raise HttpError(
                "Content-Length is absurdly large", 413, ErrorCode.TOO_LARGE
            )
        length = int(raw)
    connection = headers.get("connection", "").lower()
    if http10:
        return length, "keep-alive" in connection
    return length, "close" not in connection


def read_request(reader: Reader) -> Optional[Request]:
    """The next request head, or ``None`` if the peer closed between requests."""
    line = reader.readline(MAX_LINE)
    if not line:
        return None
    match = _REQUEST_LINE.fullmatch(line)
    if match is None:
        raise _bad_line(line, "request line", 414)
    if match[3] != b"1":
        raise HttpError(
            f"unsupported HTTP version {match[3].decode()}.{match[4].decode()}",
            505, ErrorCode.BAD_VERSION,
        )
    method = match[1].decode("ascii")
    if method not in METHODS:
        raise HttpError(
            f"unsupported method {method[:40]!r}", 501, ErrorCode.UNKNOWN_TYPE
        )
    headers = _read_headers(reader)
    length, keep_alive = _framing(headers, http10=match[4] == b"0")
    return Request(method, match[2].decode("ascii"), headers, length, keep_alive)


def encode_response(
    status: int,
    body: bytes,
    content_type: str,
    retry_after: Optional[float] = None,
    close: bool = False,
) -> bytes:
    """One complete response — head and body — as a single bytes object.

    One object means one ``send``: a head and a body written separately
    park the body behind the peer's delayed ACK (~40 ms per request on
    a keep-alive connection).
    """
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if retry_after is not None:
        # HTTP wants integral seconds; round up so clients never come
        # back earlier than the JSON hint says.
        head += f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + body


def encode_request(
    method: str, target: str, host: str, body: Optional[bytes] = None
) -> bytes:
    """One complete request as a single bytes object; a body is JSON."""
    if method not in METHODS:
        raise ValueError(f"unsupported method {method!r}")
    if not (_PRINTABLE.fullmatch(target) and _PRINTABLE.fullmatch(host)):
        raise ValueError(
            f"request target and host must be printable ASCII without "
            f"spaces, got {target!r} on {host!r}"
        )
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    if body is None:
        return (head + "\r\n").encode("ascii")
    head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("ascii") + body


def read_response(reader: Reader) -> Response:
    """The next complete response: status, body and whether the peer closes.

    The body is ``Content-Length`` bytes; without that header it runs
    to EOF, which also ends the connection.
    """
    line = reader.readline(MAX_LINE)
    match = _STATUS_LINE.fullmatch(line)
    if match is None:
        if not line:
            raise HttpError("connection closed before the response")
        raise _bad_line(line, "status line")
    status = int(match[2])
    if status < 200:
        raise HttpError(f"unexpected interim response {status}")
    length, persistent = _framing(_read_headers(reader), http10=match[1] == b"0")
    if status in (204, 304):
        return Response(status, b"", not persistent)
    if length is None:
        return Response(status, reader.read_to_eof(), True)
    return Response(status, reader.read(length), not persistent)


__all__ = [
    "HttpError",
    "MAX_HEADERS",
    "MAX_LINE",
    "METHODS",
    "Reader",
    "Request",
    "Response",
    "encode_request",
    "encode_response",
    "read_request",
    "read_response",
]
