"""`repro top` — a live ANSI operator console for the admission service.

Polls the three read-only HTTP endpoints (``/healthz``, ``/v1/stats``,
``/metrics``), assembles one :func:`console_snapshot` per poll, and
renders a terminal dashboard: throughput, windowed loss ratio per
policy, admission-cache hit rate, WAL append/fsync latency and LSN
lag, shed/backpressure state, and the SLO burn rate with its
threshold-driven health status.

Plain ANSI rather than curses: the dashboard is a pure
string-rendering function over one snapshot dict (testable without a
terminal), redrawn with a home-and-clear escape each interval.  The
``--once --json`` mode prints :func:`deterministic_view` — the subset
of the snapshot derived only from engine counters and the injected
clock, which under a ``VirtualClock`` is byte-identical across
identical runs (the observability smoke job asserts exactly this).
"""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request
from typing import Any, Mapping, Optional, TextIO

#: ``name{label="v",...} value`` or ``name value`` (exposition format).
_SAMPLE_RE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$')
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"

_STATUS_COLOR = {"ok": _GREEN, "degraded": _YELLOW, "draining": _RED}


def parse_prometheus(text: str) -> dict[str, dict[tuple[tuple[str, str], ...], float]]:
    """Parse exposition text into ``{name: {labels: value}}``.

    Labels are a sorted tuple of ``(key, value)`` pairs — hashable, and
    stable regardless of the exporter's label order.
    """
    out: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        name, label_blob, raw = match.groups()
        labels: tuple[tuple[str, str], ...] = ()
        if label_blob:
            labels = tuple(sorted(
                (m.group(1), m.group(2).replace('\\"', '"').replace("\\\\", "\\"))
                for m in _LABEL_RE.finditer(label_blob)
            ))
        try:
            value = float(raw)
        except ValueError:
            continue
        out.setdefault(name, {})[labels] = value
    return out


def metric_value(
    metrics: Mapping[str, Mapping[tuple[tuple[str, str], ...], float]],
    name: str,
    default: float = 0.0,
    **labels: str,
) -> float:
    """One sample of ``name`` matching the given label subset (summed)."""
    series = metrics.get(name)
    if not series:
        return default
    want = set(labels.items())
    total = 0.0
    found = False
    for sample_labels, value in series.items():
        if want <= set(sample_labels):
            total += value
            found = True
    return total if found else default


def _http_get(url: str, timeout: float) -> tuple[int, bytes]:
    request = urllib.request.Request(url, method="GET")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def console_snapshot(url: str, timeout: float = 5.0) -> dict[str, Any]:
    """Poll the service once; returns the raw dashboard source data."""
    base = url.rstrip("/")
    _, health_body = _http_get(f"{base}/healthz", timeout)
    health = json.loads(health_body.decode("utf-8"))
    _, stats_body = _http_get(f"{base}/v1/stats", timeout)
    stats = json.loads(stats_body.decode("utf-8")).get("stats", {})
    _, metrics_body = _http_get(f"{base}/metrics", timeout)
    metrics = parse_prometheus(metrics_body.decode("utf-8"))
    return {"health": health, "stats": stats, "metrics": metrics}


def deterministic_view(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """The subset of a snapshot that is deterministic under ``VirtualClock``.

    Excludes every wall-clock-derived series (request latency
    histograms, rps); keeps the simulated clock, admission counters,
    windowed telemetry, cache counters, WAL positions and the SLO/health
    block.  Byte-identical across identical virtual-clock runs.
    """
    health = snapshot["health"]
    stats = snapshot["stats"]
    view: dict[str, Any] = {
        "t": stats.get("t"),
        "policy": stats.get("policy"),
        "status": health.get("status"),
        "counts": {
            key: stats.get(key)
            for key in (
                "submitted", "accepted", "rejected", "completed", "failed",
                "running", "queued",
            )
        },
        "slo": health.get("slo", {}),
        "wal": health.get("wal", {}),
    }
    if "acceptance_ratio" in stats:
        view["acceptance_ratio"] = stats["acceptance_ratio"]
    if "window" in stats:
        view["window"] = stats["window"]
    if "cache" in stats:
        view["cache"] = stats["cache"]
    return view


def _cache_hit_rate(stats: Mapping[str, Any]) -> Optional[float]:
    cache = stats.get("cache")
    if not cache:
        return None
    hits = sum(v for k, v in cache.items() if k.endswith("hits"))
    misses = sum(v for k, v in cache.items() if k.endswith("misses"))
    if hits + misses <= 0:
        return None
    return hits / (hits + misses)


def _histogram_mean(
    metrics: Mapping[str, Mapping[tuple[tuple[str, str], ...], float]],
    name: str,
) -> Optional[float]:
    count = metric_value(metrics, f"{name}_count", default=0.0)
    if count <= 0:
        return None
    return metric_value(metrics, f"{name}_sum", default=0.0) / count


def render_dashboard(
    snapshot: Mapping[str, Any],
    color: bool = True,
    clear: bool = True,
) -> str:
    """Render one snapshot as the ANSI dashboard text."""
    health = snapshot["health"]
    stats = snapshot["stats"]
    metrics = snapshot["metrics"]

    def paint(text: str, code: str) -> str:
        return f"{code}{text}{_RESET}" if color else text

    status = str(health.get("status", "unknown"))
    slo = health.get("slo", {})
    wal = health.get("wal", {})
    back = health.get("backpressure", {})

    lines: list[str] = []
    lines.append(
        paint("repro top", _BOLD)
        + f" — policy={stats.get('policy', '?')}"
        + f" t={stats.get('t', 0.0):.6g}s  status="
        + paint(status, _STATUS_COLOR.get(status, _YELLOW))
    )
    lines.append(
        f"jobs: submitted={stats.get('submitted', 0)} "
        f"accepted={stats.get('accepted', 0)} "
        f"rejected={stats.get('rejected', 0)} "
        f"completed={stats.get('completed', 0)} "
        f"running={stats.get('running', 0)} queued={stats.get('queued', 0)}"
    )
    requests_total = metric_value(metrics, "service_requests_total")
    request_mean = _histogram_mean(metrics, "service_request_seconds")
    throughput = f"requests: total={requests_total:.0f}"
    if request_mean is not None:
        throughput += f" mean_latency={request_mean * 1e3:.3g}ms"
    shed = metric_value(metrics, "service_requests_shed_total")
    throughput += f" shed={shed:.0f} inflight={back.get('inflight', 0)}"
    lines.append(throughput)

    window = stats.get("window")
    if window:
        lines.append(paint(f"window [{window.get('window_s', 0):.6g}s]", _BOLD))
        for name, pol in sorted(window.get("policies", {}).items()):
            loss = pol.get("loss_ratio", 0.0)
            code = _GREEN if loss < 0.1 else (_YELLOW if loss < 0.5 else _RED)
            line = (
                f"  {name}: submitted={pol.get('submitted', 0):.0f} "
                f"rejected={pol.get('rejected', 0):.0f} "
                f"loss_ratio={paint(f'{loss:.3f}', code)}"
            )
            reasons = pol.get("reject_reasons", {})
            if reasons:
                top = sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
                line += "  reasons: " + ", ".join(
                    f"{reason}={count:.0f}" for reason, count in top
                )
            lines.append(line)

    cache_rate = _cache_hit_rate(stats)
    if cache_rate is not None:
        lines.append(f"admission cache: hit_rate={cache_rate:.3f}")

    if wal.get("enabled"):
        wal_line = (
            f"wal: appended_lsn={wal.get('appended_lsn', 0)} "
            f"applied_lsn={wal.get('applied_lsn', 0)} lag={wal.get('lag', 0)}"
        )
        if wal.get("compactions"):
            wal_line += (
                f" base_lsn={wal.get('base_lsn', 0)} "
                f"compactions={wal.get('compactions', 0)}"
            )
        append_mean = _histogram_mean(metrics, "service_wal_append_seconds")
        if append_mean is not None:
            wal_line += f" append_mean={append_mean * 1e3:.3g}ms"
        fsyncs = metric_value(metrics, "service_wal_fsyncs")
        wal_line += f" fsyncs={fsyncs:.0f}"
        lines.append(wal_line)

    shards = health.get("shards")
    if shards:
        header = f"fleet: {health.get('shard_count', len(shards))} shard(s)"
        if health.get("shards_down"):
            header += paint(f" down={health['shards_down']}", _RED)
        if "parked" in health:
            header += (
                f" parked={health.get('parked', 0)}"
                f"/{health.get('parking_capacity', 0)}"
            )
        lines.append(paint(header, _BOLD))
        for shard_id, entry in sorted(shards.items(), key=lambda kv: int(kv[0])):
            shard_status = str(entry.get("status", "?"))
            line = (
                f"  shard {shard_id}: "
                + paint(shard_status, _STATUS_COLOR.get(shard_status, _RED))
            )
            breaker = entry.get("breaker")
            if breaker:
                state = str(breaker.get("state", "?"))
                code = _GREEN if state == "closed" else (
                    _YELLOW if state == "half_open" else _RED
                )
                line += f" breaker={paint(state, code)}"
                if breaker.get("trips"):
                    line += f" trips={breaker['trips']}"
            parking = entry.get("parking")
            if parking:
                line += (
                    f" parked={parking.get('parked', 0)}"
                    f"/{parking.get('capacity', 0)}"
                )
                if parking.get("rejected_total"):
                    line += paint(
                        f" rejected={parking['rejected_total']}", _YELLOW
                    )
            lines.append(line)

    if slo:  # a fleet's merged health carries no SLO block
        burn = slo.get("burn_rate", 0.0)
        code = _GREEN if burn <= 0.5 else (_YELLOW if burn <= 1.0 else _RED)
        lines.append(
            f"slo: deadline_miss={slo.get('deadline_miss_ratio', 0.0):.4f} "
            f"objective={slo.get('deadline_miss_objective', 0.0):.4f} "
            f"burn_rate={paint(f'{burn:.3f}', code)}"
        )

    body = "\n".join(lines)
    return (_CLEAR + body) if (clear and color) else body


def run_top(
    url: str,
    interval: float = 2.0,
    once: bool = False,
    json_out: bool = False,
    color: bool = True,
    stream: Optional[TextIO] = None,
    iterations: Optional[int] = None,
) -> int:
    """The ``repro top`` loop; returns a process exit code.

    ``iterations`` bounds the number of polls (tests use it); ``once``
    is shorthand for a single poll without the clear-screen escape.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    polls = 1 if once else iterations
    done = 0
    try:
        while True:
            try:
                snapshot = console_snapshot(url)
            except (OSError, ValueError) as exc:
                print(f"repro top: cannot poll {url}: {exc}", file=out)
                return 1
            if json_out:
                view = deterministic_view(snapshot)
                print(
                    json.dumps(
                        view, sort_keys=True, separators=(",", ":"),
                        ensure_ascii=False, allow_nan=False,
                    ),
                    file=out,
                )
            else:
                print(
                    render_dashboard(snapshot, color=color, clear=not once),
                    file=out,
                )
            done += 1
            if polls is not None and done >= polls:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


__all__ = [
    "console_snapshot",
    "deterministic_view",
    "metric_value",
    "parse_prometheus",
    "render_dashboard",
    "run_top",
]
