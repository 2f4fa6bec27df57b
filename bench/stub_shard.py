"""A null shard: speaks the shard wire contract, hosts no engine.

Answers every job of a ``submit`` or ``batch`` frame with a canned
``accepted`` decision, so driving a :class:`ShardRouter` against two of
these prices the router + forward path alone (parse, split, fan-out
threads, per-forward connections, merge).  Same transport as a real
shard: ``ThreadingHTTPServer``, ``POST /v1/rpc``, ``GET /healthz``.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any


def canned_decision(job: dict[str, Any]) -> dict[str, Any]:
    return {
        "v": 1, "ok": True, "type": "decision",
        "decision": {
            "job": job["id"], "outcome": "accepted",
            "t": job.get("submit_time", 0.0), "policy": "stub",
        },
    }


def answer(request: dict[str, Any]) -> dict[str, Any]:
    """The stub's reply to one decoded protocol request."""
    kind = request.get("type")
    if kind == "batch":
        results = [canned_decision(job) for job in request["jobs"]]
        return {"v": 1, "ok": True, "type": "batch", "results": results}
    if kind == "submit":
        return canned_decision(request["job"])
    return {
        "v": 1, "ok": False,
        "error": {"code": "unknown_type", "message": f"stub shard cannot {kind!r}"},
    }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args: Any) -> None:
        pass

    def _send(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if self.path == "/healthz":
            self._send(200, {"status": "ok"})
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        length = int(self.headers.get("Content-Length", "0"))
        reply = answer(json.loads(self.rfile.read(length)))
        self._send(200 if reply["ok"] else 400, reply)


def make_server(port: int) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
    server.daemon_threads = True
    return server


if __name__ == "__main__":
    make_server(int(sys.argv[1])).serve_forever()
