"""One persistent HTTP/1.1 transport for every outbound call in the service.

:class:`Transport` keeps a thread-safe LIFO pool of idle keep-alive
connections (a socket plus the :mod:`~repro.service.http11` read-ahead
buffer over it) to **one** peer, so the client,
the load generator, the supervisor's health wait and the shard router
stop paying a TCP connect, an accept and a fresh server handler thread
per request.  An exchange has two halves: :meth:`Transport.send` borrows
a connection (dialling only when none is idle) and writes the request;
:meth:`Transport.receive` reads the answer and puts the connection back.
:meth:`Transport.request` is ``receive(send(...))``; the shard router
writes to every shard before it reads from any.  Concurrent callers each
get their own connection, and at most :data:`MAX_IDLE` are kept idle.

Rules the callers rely on
-------------------------
* **One failure type.**  Refused/reset/timed-out sockets and broken
  HTTP framing all surface as :class:`TransportError`; the connection
  involved is closed, never pooled.
* **No automatic resend.**  A request whose ``send`` or ``receive``
  fails is reported, not retried on a fresh connection: the peer may
  already have applied it, and only the callers (``RetryingClient``,
  ``ShardRouter._fan_out``) know whether a resend is idempotent.
* **One budget per exchange.**  ``receive`` waits for what is left of
  ``timeout`` since its own ``send`` began: a caller that wrote to N
  hung peers gets N failures in about one ``timeout``, not N of them.
  An answer that has already arrived is read even on a spent budget.
* **Staleness poll.**  Before an idle connection is reused its socket
  is polled for readability with a zero timeout.  An idle keep-alive
  socket has nothing to read, so "readable" means EOF or RST from a
  peer that closed, was killed or was restarted on the same port — the
  connection is dropped and a fresh one dialled, so a respawned shard
  costs no failed request.
* **No pooling across a close.**  A response that announces the end of
  the connection (HTTP/1.0, ``Connection: close`` — what a draining
  server sends) is never returned to the pool.
* **``TCP_QUICKACK`` before each read.**  Peers built on stdlib
  ``http.server`` write headers and body as two segments; with delayed
  ACK on our side and Nagle on theirs the second segment would wait
  ~40 ms for our ACK.  The flag is per-read state in Linux, so it is
  set again for every response (platforms without it skip this).
"""

from __future__ import annotations

import re
import socket
import threading
import time
from typing import Optional

from repro.service import http11

#: Idle connections kept per peer; surplus ones are closed on return.
MAX_IDLE = 8

_QUICKACK: Optional[int] = getattr(socket, "TCP_QUICKACK", None)

# host is a name, an IPv4 address or a bracketed IPv6 address.
_URL = re.compile(r"http://(\[[0-9A-Fa-f:.]+\]|[^\s:/\[\]]+)(?::([0-9]{1,5}))?(/\S*)?")

#: One connection: its socket and the read-ahead buffer over it.
_Connection = tuple[socket.socket, http11.Reader]

#: A written request awaiting its answer: the connection it rode and the
#: ``time.monotonic`` instant at which its budget runs out.
InFlight = tuple[socket.socket, http11.Reader, float]


class TransportError(Exception):
    """The exchange with the peer failed below the HTTP status level."""


class Transport:
    """Pooled keep-alive HTTP client for one ``http://host:port`` peer."""

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        match = _URL.fullmatch(url.rstrip("/"))
        if match is None or int(match[2] or 80) > 65535:
            raise ValueError(f"expected an http://host:port URL, got {url!r}")
        host, port, prefix = match.groups()
        self._netloc = f"{host}:{port}" if port else host
        self._address = (host.strip("[]"), int(port or 80))
        self._prefix = prefix or ""
        self.timeout = timeout
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()
        #: Connections dialled so far (tests and reports read it).
        self.opened = 0

    def _checkout(self) -> Optional[_Connection]:
        """The most recently used live idle connection, if there is one."""
        while True:
            with self._lock:
                if not self._idle:
                    self.opened += 1
                    return None
                conn = self._idle.pop()
            if not self._peer_gone(conn):
                return conn
            conn[0].close()

    def _peer_gone(self, conn: _Connection) -> bool:
        """Zero-timeout readability poll of an idle connection's socket."""
        sock, reader = conn
        if reader.pending:
            return True
        try:
            sock.settimeout(0.0)
            sock.recv(1, socket.MSG_PEEK)
        except BlockingIOError:
            sock.settimeout(self.timeout)
            return False
        except OSError:
            pass
        # EOF, RST, or bytes nobody asked for: unusable either way.
        return True

    def _dial(self) -> _Connection:
        sock = socket.create_connection(self._address, timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, http11.Reader(sock.recv)

    def send(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> InFlight:
        """Write one request; :meth:`receive` reads its answer."""
        message = http11.encode_request(
            method, self._prefix + path, self._netloc, body
        )
        due = time.monotonic() + self.timeout
        sock: Optional[socket.socket] = None
        try:
            sock, reader = self._checkout() or self._dial()
            sock.sendall(message)
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        return sock, reader, due

    def receive(self, sent: InFlight) -> tuple[int, bytes]:
        """Read the answer to one :meth:`send`: ``(http_status, body)``."""
        sock, reader, due = sent
        try:
            # A spent budget still reads an answer that has arrived.
            sock.settimeout(max(due - time.monotonic(), 0.001))
            if _QUICKACK is not None:
                sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
            response = http11.read_response(reader)
        except (OSError, http11.HttpError) as exc:
            sock.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        with self._lock:
            keep = not response.will_close and len(self._idle) < MAX_IDLE
            if keep:
                self._idle.append((sock, reader))
        if not keep:
            sock.close()
        return response.status, response.body

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> tuple[int, bytes]:
        """One exchange: ``(http_status, response_body)``.

        Raises :class:`TransportError` on any socket or framing failure;
        HTTP error statuses are returned, not raised.
        """
        return self.receive(self.send(method, path, body))

    def close(self) -> None:
        """Close every idle connection; ones in use are not touched."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock, _ in idle:
            sock.close()


__all__ = ["MAX_IDLE", "InFlight", "Transport", "TransportError"]
