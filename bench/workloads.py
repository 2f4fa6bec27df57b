"""One pass of each workload through freshly built stacks, timed from outside.

A pass serves every sub-stream through its own fresh stack (engine,
``repro serve`` child, or two-shard fleet).  Closed loop, one client, one
request in flight, one driver thread.  Only public entry points are
driven; with a :class:`~spans.Tracer` the same calls are wrapped in
spans (and ``engine.submit`` is split into ``engine.advance`` +
``engine.submit``, which fires the identical event sequence) — the
untraced path carries no tracing code at all.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

from repro.service import protocol, wal as wal_mod
from repro.service.engine import EngineConfig, engine_for_scenario
from repro.service.loadgen import ServiceClient
from repro.service.sharding.partition import plan_shards, shard_for_submit
from repro.service.sharding.router import ShardRouter, merge_scenario_metrics
from repro.service.sharding.supervisor import ShardSupervisor, WorkerSpec, free_ports

from children import BENCH_DIR, Children, peak_rss_mb, serve_cmd, wait_healthy
from spans import Tracer
from streams import (
    Decision, Spec, Stream, decision_of_response, decisions_of_engine,
)

V = protocol.PROTOCOL_VERSION
WAL_FSYNC = "batch"  # the serve_durable child's --wal-fsync policy
FLEET_SHARDS = 2


@dataclass
class PassResult:
    """What one pass measured; per-stream lists are in stream order."""

    latencies: list[float] = field(default_factory=list)  # one per request, all streams
    walls: list[float] = field(default_factory=list)  # timed loop, per stream
    decisions: list[list[Decision]] = field(default_factory=list)  # per stream
    met_pct: list[float] = field(default_factory=list)  # per stream, after drain
    pre_drain: list[Any] = field(default_factory=list)  # per stream metrics() before drain
    setups: list[float] = field(default_factory=list)  # spawn -> every /healthz 200
    recovers: list[tuple[float, int]] = field(default_factory=list)  # (s, records)
    attempted: int = 0  # jobs + queries sent
    errors: int = 0  # requests that errored or were refused
    rss_mb: float = 0.0  # peak RSS among the engine-hosting children
    events: int = 0  # kernel events fired (in-process passes)
    cache: dict[str, int] = field(default_factory=dict)  # scan counters, summed
    problems: list[str] = field(default_factory=list)  # failed parity checks


def submit_request(payload: dict[str, Any]) -> dict[str, Any]:
    return {"v": V, "type": "submit", "job": payload}


def run_pass(spec: Spec, streams: list[Stream], children: Children,
             tracer: Optional[Tracer] = None) -> PassResult:
    """Every sub-stream through a fresh stack of the workload's kind."""
    if spec.kind == "engine":
        return engine_pass(streams, tracer)
    out = PassResult()
    for stream in streams:
        if spec.kind == "serve":
            serve_stream(spec, stream, children, out, tracer)
        else:
            fleet_stream(spec, stream, children, out, tracer)
    return out


# -- engine_* ------------------------------------------------------------------

def engine_pass(streams: list[Stream], tracer: Optional[Tracer] = None,
                telemetry: bool = True) -> PassResult:
    out = PassResult()
    for stream in streams:
        engine_stream(stream, out, tracer, telemetry)
    return out


def engine_stream(stream: Stream, out: PassResult, tracer: Optional[Tracer] = None,
                  telemetry: bool = True) -> None:
    """In-process ``engine.submit`` of one sub-stream on a fresh engine."""
    jobs = stream.fresh_jobs()
    engine = engine_for_scenario(stream.config, telemetry=telemetry)
    lat: list[float] = []
    gc.collect()
    if tracer is None:
        submit = engine.submit
        t0 = perf_counter()
        for job in jobs:
            t = perf_counter()
            submit(job)
            lat.append(perf_counter() - t)
        wall = perf_counter() - t0
    else:
        wall = _traced_engine_loop(engine, jobs, lat, tracer, len(out.latencies))
    out.pre_drain.append(engine.metrics())
    if tracer is None:
        engine.drain()
        metrics = engine.metrics()
    else:
        with tracer.timed("engine.drain"):
            engine.drain()
        with tracer.timed("metrics.compute"):
            metrics = engine.metrics()
    out.latencies += lat
    out.walls.append(wall)
    out.decisions.append(decisions_of_engine(engine))
    out.met_pct.append(metrics.pct_deadlines_fulfilled)
    out.attempted += len(jobs)
    out.events += engine.sim.events_fired
    for key, count in engine.stats().get("cache", {}).items():
        out.cache[key] = out.cache.get(key, 0) + count


def _traced_engine_loop(engine: Any, jobs: list[Any], lat: list[float],
                        tracer: Tracer, first_request: int) -> float:
    advance, submit, add = engine.advance, engine.submit, tracer.add
    t_loop = perf_counter()
    for rid, job in enumerate(jobs, first_request):
        t0 = perf_counter()
        advance(job.submit_time)
        t1 = perf_counter()
        submit(job)
        t2 = perf_counter()
        root = add("request", t0, t2, -1, rid)
        add("sim.advance", t0, t1, root, rid)
        add("scheduling.admit", t1, t2, root, rid)
        lat.append(t2 - t0)
    return perf_counter() - t_loop


# -- serve_durable -------------------------------------------------------------

def serve_requests(spec: Spec, stream: Stream) -> list[tuple[bool, dict[str, Any]]]:
    """``(is_submit, request)`` in send order: a query of an earlier job
    id after every ``query_every``-th submit (reads beside writes)."""
    requests: list[tuple[bool, dict[str, Any]]] = []
    for i, payload in enumerate(stream.payloads, 1):
        requests.append((True, submit_request(payload)))
        if spec.query_every and i % spec.query_every == 0:
            earlier = stream.payloads[i // 2]["id"]
            requests.append((False, {"v": V, "type": "query", "job": earlier}))
    return requests


def serve_stream(spec: Spec, stream: Stream, children: Children, out: PassResult,
                 tracer: Optional[Tracer] = None) -> None:
    """One ``repro serve`` child over HTTP; then SIGKILL and ``wal.recover``."""
    requests = serve_requests(spec, stream)
    port = free_ports(1)[0]
    url = f"http://127.0.0.1:{port}"
    wal_path = children.scratch(".wal")
    t0 = perf_counter()
    proc = children.spawn(serve_cmd(
        spec.policy, spec.nodes, port, "--wal", wal_path, "--wal-fsync", WAL_FSYNC,
    ))
    wait_healthy([url], [proc])
    out.setups.append(perf_counter() - t0)
    rpc = ServiceClient(url).rpc
    decided: list[Decision] = []
    first_request = out.attempted
    gc.collect()
    t_loop = perf_counter()
    for rid, (is_submit, request) in enumerate(requests, first_request):
        t = perf_counter()
        _, response = rpc(request)
        t_end = perf_counter()
        if tracer is not None:
            tracer.add("client.submit" if is_submit else "client.query",
                       t, t_end, -1, rid)
        if not response.get("ok"):
            out.errors += 1
        elif is_submit:
            out.latencies.append(t_end - t)
            decided.append(decision_of_response(response))
    out.walls.append(perf_counter() - t_loop)
    out.attempted += len(requests)
    out.decisions.append(decided)
    out.rss_mb = max(out.rss_mb, peak_rss_mb(proc.pid))
    children.kill(proc)
    t = perf_counter()
    engine, report = wal_mod.recover(wal_path)
    out.recovers.append((perf_counter() - t, report.replayed))
    if decisions_of_engine(engine) != decided:
        out.problems.append("recovered decisions differ from the acked stream")
    out.pre_drain.append(engine.metrics())
    engine.drain()
    out.met_pct.append(engine.metrics().pct_deadlines_fulfilled)
    os.unlink(wal_path)


# -- fleet2_batch ----------------------------------------------------------------

def batch_frames(spec: Spec, stream: Stream) -> list[tuple[bytes, int]]:
    """Encoded ``batch`` frames of ``spec.batch`` jobs and their item counts."""
    frames = []
    for i in range(0, len(stream.payloads), spec.batch):
        group = stream.payloads[i:i + spec.batch]
        frames.append(
            (protocol.encode({"v": V, "type": "batch", "jobs": group}), len(group))
        )
    return frames


def drive_router(router: ShardRouter, frames: list[tuple[bytes, int]], out: PassResult,
                 tracer: Optional[Tracer] = None, span: str = "router.handle") -> None:
    """Send every frame through ``router.handle``; collect item decisions."""
    handle = router.handle
    decided: list[Decision] = []
    first_request = len(out.latencies)
    gc.collect()
    t_loop = perf_counter()
    for rid, (frame, items) in enumerate(frames, first_request):
        t = perf_counter()
        _, response = handle(frame)
        t_end = perf_counter()
        out.latencies.append(t_end - t)
        if tracer is not None:
            tracer.add(span, t, t_end, -1, rid)
        out.attempted += items
        if not response.get("ok"):
            out.errors += items
            continue
        for item in response["results"]:
            if item.get("ok"):
                decided.append(decision_of_response(item))
            else:
                out.errors += 1
    out.walls.append(perf_counter() - t_loop)
    out.decisions.append(decided)


def fleet_stream(spec: Spec, stream: Stream, children: Children, out: PassResult,
                 tracer: Optional[Tracer] = None, shards: int = FLEET_SHARDS) -> None:
    """``ShardRouter`` in the driver over ``shards`` supervised serve children."""
    frames = batch_frames(spec, stream)
    ports = free_ports(shards)
    urls = [f"http://127.0.0.1:{port}" for port in ports]
    workers = [
        WorkerSpec(
            shard_id=i, url=urls[i], env=children.env,
            cmd=serve_cmd(spec.policy, spec.nodes, ports[i],
                          "--shard-id", str(i), "--shard-count", str(shards)),
        )
        for i in range(shards)
    ]
    router = ShardRouter(EngineConfig(policy=spec.policy, num_nodes=spec.nodes), urls)
    supervisor = children.adopt(ShardSupervisor(
        workers, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ))
    supervisor.router = router
    t0 = perf_counter()
    supervisor.start(wait_healthy=False)
    wait_healthy(urls, [state.proc for state in supervisor.workers])
    out.setups.append(perf_counter() - t0)
    drive_router(router, frames, out, tracer)
    _, drained = router.handle(protocol.encode({"v": V, "type": "drain"}))
    if drained.get("ok"):
        out.met_pct.append(drained["metrics"]["pct_deadlines_fulfilled"])
    else:
        out.problems.append(f"fleet drain failed: {drained.get('error')}")
    out.rss_mb = max([out.rss_mb, *map(peak_rss_mb, supervisor.pids().values())])
    supervisor.stop(timeout=5.0)


# -- driver-side restart: the same WAL layer used the other way ----------------------

def write_wals(stream: Stream, children: Children, shards: int) -> list[str]:
    """Log a stream exactly as the server(s) would have: one WAL per shard.

    ``t`` is the engine clock a server sees before applying the record —
    the previous submit time on that shard.
    """
    configs = plan_shards(EngineConfig.from_scenario(stream.config), shards)
    paths = [children.scratch(f".shard{i}of{shards}.wal") for i in range(shards)]
    logs = [
        wal_mod.WriteAheadLog.open(path, config=config.as_dict(), fsync="none")
        for path, config in zip(paths, configs)
    ]
    clocks = [0.0] * shards
    try:
        for payload in stream.payloads:
            shard = shard_for_submit(payload["id"], payload.get("user"), shards)
            logs[shard].append(clocks[shard], submit_request(payload))
            clocks[shard] = payload["submit_time"]
    finally:
        for log in logs:
            log.close()
    return paths


@dataclass
class Recovered:
    seconds: float
    records: int
    decisions: list[Decision]  # merged back into submit order
    pre_drain: list[Any]  # per shard
    met_pct: float  # merged, after drain


def recover_wals(paths: list[str], stream: Stream) -> Recovered:
    """Time ``wal.recover`` over every shard log; merge what it rebuilt."""
    engines = []
    records = 0
    t0 = perf_counter()
    for path in paths:
        engine, report = wal_mod.recover(path)
        engines.append(engine)
        records += report.replayed
    seconds = perf_counter() - t0
    by_id = {d[0]: d for engine in engines for d in decisions_of_engine(engine)}
    decisions = [by_id[p["id"]] for p in stream.payloads if p["id"] in by_id]
    pre_drain = [engine.metrics() for engine in engines]
    for engine in engines:
        engine.drain()
    merged = merge_scenario_metrics(
        [engine.metrics().as_dict() for engine in engines],
        [len(engine.cluster) for engine in engines],
    )
    return Recovered(seconds, records, decisions, pre_drain,
                     merged["pct_deadlines_fulfilled"])


# -- cold start --------------------------------------------------------------------

def setup_probe(stream: Stream, children: Children) -> float:
    """Spawn-to-exit seconds of one fresh interpreter reaching ready."""
    config = stream.config
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), config.policy,
        str(config.num_nodes), str(config.num_jobs), str(config.seed),
    ]
    t0 = perf_counter()
    code = children.spawn(cmd).wait()
    elapsed = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"setup probe exited with {code}")
    return elapsed
