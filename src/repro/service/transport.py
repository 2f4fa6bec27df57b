"""One persistent HTTP/1.1 transport for every outbound call in the service.

:class:`Transport` keeps a thread-safe LIFO pool of idle keep-alive
``http.client.HTTPConnection`` objects to **one** peer, so the client,
the load generator, the supervisor's health wait and the shard router
stop paying a TCP connect, an accept and a fresh server handler thread
per request.  :meth:`Transport.request` borrows a connection (dialling
only when none is idle), runs one exchange and puts the connection
back; concurrent callers each get their own connection, and at most
:data:`MAX_IDLE` are kept between calls.

Rules the callers rely on
-------------------------
* **One failure type.**  Refused/reset/timed-out sockets and broken
  HTTP framing all surface as :class:`TransportError`; the connection
  involved is closed, never pooled.
* **No automatic resend.**  A request that fails mid-exchange is
  reported, not retried on a fresh connection: the peer may already
  have applied it, and only the callers (``RetryingClient``,
  ``ShardRouter._post``) know whether a resend is idempotent.
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

import http.client
import socket
import threading
from typing import Optional

#: Idle connections kept per peer; surplus ones are closed on return.
MAX_IDLE = 8

_QUICKACK: Optional[int] = getattr(socket, "TCP_QUICKACK", None)


class TransportError(Exception):
    """The exchange with the peer failed below the HTTP status level."""


class Transport:
    """Pooled keep-alive HTTP client for one ``http://host:port`` peer."""

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        scheme, _, rest = url.partition("://")
        if scheme != "http" or not rest:
            raise ValueError(f"expected an http://host:port URL, got {url!r}")
        netloc, _, prefix = rest.rstrip("/").partition("/")
        self._netloc = netloc
        self._prefix = f"/{prefix}" if prefix else ""
        self.timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        #: Connections dialled so far (tests and reports read it).
        self.opened = 0

    def _checkout(self) -> http.client.HTTPConnection:
        """The most recently used live idle connection, else a new one."""
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
                if conn is None:
                    self.opened += 1
            if conn is None:
                return http.client.HTTPConnection(self._netloc, timeout=self.timeout)
            if not self._peer_gone(conn):
                return conn
            conn.close()

    def _peer_gone(self, conn: http.client.HTTPConnection) -> bool:
        """Zero-timeout readability poll of an idle connection's socket."""
        sock = conn.sock
        if sock is None:
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

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> tuple[int, bytes]:
        """One exchange: ``(http_status, response_body)``.

        Raises :class:`TransportError` on any socket or framing failure;
        HTTP error statuses are returned, not raised.
        """
        conn = self._checkout()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            conn.request(method, self._prefix + path, body=body, headers=headers)
            if _QUICKACK is not None:
                conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(f"{type(exc).__name__}: {exc}") from exc
        with self._lock:
            keep = not response.will_close and len(self._idle) < MAX_IDLE
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        return response.status, payload

    def close(self) -> None:
        """Close every idle connection; ones in use are not touched."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


__all__ = ["MAX_IDLE", "Transport", "TransportError"]
