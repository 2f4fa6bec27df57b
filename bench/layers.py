"""The traced run: the workload's own stack under spans, then a layer ladder.

Part A replays the workload itself, untraced and traced, to show the
traced run decides identically and to price the tracing.  Part B pushes
the head of stream 0 (same policy, same cluster) through successively
thicker stacks — engine, protocol, WAL, checkpoint, in-process service,
HTTP server, router over stub shards, 1- and 2-shard fleets — so every
per-layer metric exists on every workload and differences add up
outside-in.  Layer = module name.  Spans are recorded here, around the
calls; nothing in ``src/`` is instrumented.
"""

from __future__ import annotations

import os
import statistics
import sys
from dataclasses import replace
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.service import checkpoint, protocol, wal as wal_mod
from repro.service.engine import EngineConfig, engine_for_scenario
from repro.service.server import AdmissionService
from repro.service.sharding.router import ShardRouter
from repro.service.sharding.supervisor import free_ports

from children import BENCH_DIR, OUT_DIR, Children, wait_healthy
from estimators import fast_quartile, floors, percentile
from spans import END, NAME, START, Tracer, write_trace
from streams import Spec, Stream, build_streams
from untraced import RunResult, check_passes
from yardstick import Yardstick
from workloads import (
    PassResult, WAL_FSYNC, batch_frames, drive_router, engine_pass, engine_stream, fleet_stream,
    run_pass, serve_requests,
)

#: Untraced and traced in-process passes compared by the engine rungs.
TRACE_REPS = 2
#: Part B works on at most this many leading jobs of stream 0.
LADDER_JOBS = 1000
LADDER_BATCH = 32
LADDER_QUERY_EVERY = 10

#: ``engine.stats()["cache"]`` counter behind each per-job scan metric.
SCAN_COUNTERS = {
    "online_scans": "online_scans", "projections": "projections_run",
    "sigma_cert_hits": "sigma_cert_hits", "capacity_cert_hits": "capacity_cert_hits",
    "agg_rebuilds": "agg_rebuilds", "poison_skips": "poison_skips",
    "empty_shortcuts": "empty_shortcuts", "fast_fit_hits": "fast_fit_hits",
}


def mean_us(seconds: Sequence[float]) -> float:
    return 1e6 * statistics.fmean(seconds) if seconds else 0.0


def p50_us(seconds: Sequence[float]) -> float:
    return 1e6 * percentile(sorted(seconds), 50.0) if seconds else 0.0


def timed_each(tracer: Tracer, name: str, fn: Callable[[Any], Any],
               items: Sequence[Any]) -> tuple[list[float], list[Any]]:
    """Call ``fn(item)`` for every item under one span each."""
    durations, results = [], []
    for rid, item in enumerate(items):
        t0 = perf_counter()
        results.append(fn(item))
        t1 = perf_counter()
        tracer.add(name, t0, t1, -1, rid)
        durations.append(t1 - t0)
    return durations, results


def span_floors(tracer: Tracer, name: str, windows: list[tuple[int, int]]) -> list[float]:
    """Per-request floor of span ``name`` over the traced passes.

    ``windows`` are the ``[start, end)`` index ranges each traced pass
    appended to the tracer, in request order.
    """
    return floors([
        [s[END] - s[START] for s in tracer.spans[start:end] if s[NAME] == name]
        for start, end in windows
    ])


# -- part A + the engine rungs ---------------------------------------------------

def engine_layers(streams: list[Stream], tracer: Tracer,
                  m: dict[str, tuple[float, str]], result: RunResult) -> list[float]:
    """Untraced vs traced in-process passes: sim / scheduling / engine / metrics.

    Returns the per-request floors of advance + admit, in request order.
    """
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    windows = []
    for _ in range(TRACE_REPS):
        # Stream by stream, so the two readings of a stream are a second
        # apart and machine drift cancels in their ratio.
        plain, spanned, start = PassResult(), PassResult(), len(tracer.spans)
        for stream in streams:
            engine_stream(stream, plain)
            engine_stream(stream, spanned, tracer)
        untraced.append(plain)
        traced.append(spanned)
        windows.append((start, len(tracer.spans)))
    check_passes(untraced + traced, result)

    jobs = untraced[0].attempted
    advance = span_floors(tracer, "sim.advance", windows)
    admit = span_floors(tracer, "scheduling.admit", windows)
    outcomes = [d[1] for stream in traced[0].decisions for d in stream]
    accepted = [t for t, o in zip(admit, outcomes) if o != "rejected"]
    rejected = [t for t, o in zip(admit, outcomes) if o == "rejected"]
    m["sim.advance_us_per_job"] = (mean_us(advance), "us")
    m["sim.events_per_job"] = (traced[0].events / jobs, "count")
    m["scheduling.admit_us_per_job"] = (mean_us(admit), "us")
    m["scheduling.admit_accept_p50_us"] = (p50_us(accepted), "us")
    m["scheduling.admit_reject_p50_us"] = (p50_us(rejected), "us")
    for label, counter in SCAN_COUNTERS.items():
        m[f"scheduling.{label}_per_job"] = (traced[0].cache.get(counter, 0) / jobs, "count")

    def per_pass_total(name: str) -> float:
        return min(
            sum(s[END] - s[START] for s in tracer.spans[a:b] if s[NAME] == name)
            for a, b in windows
        )
    m["engine.drain_s"] = (per_pass_total("engine.drain"), "s")
    m["metrics.compute_ms"] = (1e3 * per_pass_total("metrics.compute"), "ms")

    # The ROADMAP gate: per-request layer sums vs the untraced request time,
    # both read from per-request floors.
    layer_sum = sum(advance) + sum(admit)
    untraced_sum = sum(floors([p.latencies for p in untraced]))
    m["trace.layer_sum_gap_pct"] = (100.0 * (layer_sum / untraced_sum - 1.0), "%")
    m["trace.overhead_pct"] = (
        100.0 * (min(sum(p.walls) for p in traced)
                 / min(sum(p.walls) for p in untraced) - 1.0), "%",
    )
    result.notes.append(
        f"engine rungs: {jobs} jobs x {TRACE_REPS} untraced + {TRACE_REPS} traced passes; "
        f"layer sum {1e6 * layer_sum / jobs:.2f} us/job vs untraced "
        f"{1e6 * untraced_sum / jobs:.2f} us/job"
    )
    return [a + b for a, b in zip(advance, admit)]


def telemetry_overhead(head: Stream, m: dict[str, tuple[float, str]]) -> None:
    """Submit time with trace ids + windowed telemetry over without, from
    per-request floors of three alternating passes each."""
    latencies: dict[bool, list[list[float]]] = {True: [], False: []}
    for _ in range(3):
        for telemetry in (True, False):
            latencies[telemetry].append(engine_pass([head], telemetry=telemetry).latencies)
    on, off = sum(floors(latencies[True])), sum(floors(latencies[False]))
    m["obs.telemetry_overhead_pct"] = (100.0 * (on / off - 1.0), "%")


# -- protocol, wal, checkpoint, server (in-process) -------------------------------------

def service_layers(spec: Spec, head: Stream, children: Children, tracer: Tracer,
                   m: dict[str, tuple[float, str]], submit_us: float) -> float:
    """The rungs between the engine and the socket; returns handle p50 (s).

    ``submit_us`` is the mean in-process advance + admit time of the
    same jobs, from the engine rungs.
    """
    requests = serve_requests(spec, head)
    submits = [request for is_submit, request in requests if is_submit]
    queries = [request for is_submit, request in requests if not is_submit]

    encode_s, bodies = timed_each(tracer, "protocol.encode", protocol.encode, submits)
    parse_s, _ = timed_each(tracer, "protocol.parse_request", protocol.parse_request, bodies)
    m["protocol.encode_request_us"] = (mean_us(encode_s), "us")
    m["protocol.parse_request_us"] = (mean_us(parse_s), "us")
    m["protocol.request_bytes"] = (statistics.fmean(len(b) for b in bodies), "count")

    engine = engine_for_scenario(head.config)
    config = engine.config.as_dict()
    service_wal = wal_mod.WriteAheadLog.open(
        os.path.join(children.tmp, "service.wal"), config=config, fsync=WAL_FSYNC,
    )
    service = AdmissionService(engine, wal=service_wal)
    try:
        handle_s, answers = timed_each(tracer, "server.handle", service.handle, bodies)
        query_s, _ = timed_each(
            tracer, "server.handle.query", service.handle,
            [protocol.encode(q) for q in queries],
        )
    finally:
        service.close_wal()
    responses = [response for _, response in answers]
    if not all(response.get("ok") for response in responses):
        raise RuntimeError("in-process AdmissionService refused a submit")
    respond_s, _ = timed_each(tracer, "protocol.encode", protocol.encode, responses)
    m["protocol.encode_response_us"] = (mean_us(respond_s), "us")

    # The WAL alone: the same frames the service just logged, appended again.
    path = os.path.join(children.tmp, "append.wal")
    log = wal_mod.WriteAheadLog.open(path, config=config, fsync=WAL_FSYNC)
    clock = [0.0]

    def append(request: dict[str, Any]) -> int:
        lsn = log.append(clock[0], request)
        clock[0] = request["job"]["submit_time"]
        return lsn
    try:
        append_s, _ = timed_each(tracer, "wal.append", append, submits)
    finally:
        log.close()
    m["wal.append_us"] = (mean_us(append_s), "us")
    m["wal.bytes_per_record"] = (log.bytes_written / log.appended, "count")
    m["wal.fsyncs_per_1k_records"] = (1000.0 * log.syncs / log.appended, "count")
    with tracer.timed("wal.read_wal") as span:
        read = wal_mod.read_wal(path)
    m["wal.read_records_per_s"] = (len(read.records) / span.seconds, "1/s")
    with tracer.timed("wal.recover") as span:
        recovered, report = wal_mod.recover(path)
    m["wal.recover_records_per_s"] = (report.replayed / span.seconds, "1/s")

    snapshot = os.path.join(children.tmp, "engine.ckpt")
    with tracer.timed("checkpoint.save") as span:
        checkpoint.save(recovered, snapshot)
    m["checkpoint.save_ms"] = (1e3 * span.seconds, "ms")
    m["checkpoint.bytes"] = (float(os.path.getsize(snapshot)), "count")
    with tracer.timed("checkpoint.load") as span:
        checkpoint.load(snapshot)
    m["checkpoint.load_ms"] = (1e3 * span.seconds, "ms")

    m["server.handle_us"] = (mean_us(handle_s), "us")
    m["server.query_p50_us"] = (p50_us(query_s), "us")
    # What the service adds around the calls it makes: handle() parses,
    # appends and submits (advance + admit); it returns a dict, so the
    # response encode is the HTTP handler's and is not subtracted here.
    m["server.self_us"] = (
        mean_us(handle_s) - mean_us(parse_s) - mean_us(append_s) - submit_us, "us",
    )
    return percentile(sorted(handle_s), 50.0)


# -- router ---------------------------------------------------------------------------

def null_shard_ms_per_frame(spec: Spec, head: Stream, children: Children,
                            tracer: Tracer) -> float:
    """The same frames against two stub shards: router + forward self-cost."""
    ports = free_ports(2)
    urls = [f"http://127.0.0.1:{port}" for port in ports]
    stub = os.path.join(BENCH_DIR, "stub_shard.py")
    procs = [children.spawn([sys.executable, stub, str(port)]) for port in ports]
    wait_healthy(urls, procs)
    router = ShardRouter(EngineConfig(policy=spec.policy, num_nodes=spec.nodes), urls)
    out = PassResult()
    drive_router(router, batch_frames(spec, head), out, tracer, "router.handle.null")
    for proc in procs:
        children.kill(proc)
    if out.errors:
        raise RuntimeError(f"stub shards refused {out.errors} items")
    return 1e-3 * p50_us(out.latencies)


# -- the traced run ---------------------------------------------------------------------

def run_traced(spec: Spec, seed: int, children: Children) -> RunResult:
    result = RunResult()
    tracer = Tracer()
    yard = Yardstick()
    m = result.metrics
    streams, build_s = build_streams(spec, seed)
    total_jobs = sum(len(s.payloads) for s in streams)
    m["workload.build_jobs_per_s"] = (total_jobs / build_s, "1/s")

    first = streams[0]
    size = min(LADDER_JOBS, len(first.payloads))
    head = Stream(first.config, first.templates[:size], first.payloads[:size])
    rung = replace(spec, jobs=size, streams=1, batch=LADDER_BATCH,
                   query_every=LADDER_QUERY_EVERY)

    # Part A for the child-process workloads; for the in-process ones
    # the engine rungs over every stream are the same untraced-vs-traced replay.
    own: list[PassResult] = []
    yard.sample()
    if spec.kind == "engine":
        submit_floors = engine_layers(streams, tracer, m, result)
    else:
        own = [run_pass(spec, streams, children), run_pass(spec, streams, children, tracer)]
        check_passes(own, result)
        submit_floors = engine_layers([head], tracer, m, result)
        m["trace.overhead_pct"] = (
            100.0 * (sum(own[1].walls) / sum(own[0].walls) - 1.0), "%",
        )
    yard.sample()
    telemetry_overhead(head, m)

    handle_p50 = service_layers(
        rung, head, children, tracer, m, mean_us(submit_floors[:size]),
    )
    yard.sample()
    arms: list[PassResult] = []  # ladder rungs that are not part A's passes
    if spec.kind == "serve":
        http = own[0]
    else:
        http = run_pass(replace(rung, kind="serve"), [head], children)
        arms.append(http)
    m["server.http_overhead_us"] = (
        1e6 * (percentile(sorted(http.latencies), 50.0) - handle_p50), "us",
    )

    if spec.kind == "fleet":
        two = own[0]
    else:
        two = run_pass(replace(rung, kind="fleet"), [head], children)
        arms.append(two)
    one = PassResult()
    fleet_stream(rung, head, children, one, shards=1)
    arms.append(one)
    frames = len(two.latencies)
    # Medians: one stalled frame out of 32 would own a mean.
    m["router.handle_ms_per_frame"] = (1e-3 * p50_us(two.latencies), "ms")
    m["router.null_shard_ms_per_frame"] = (
        null_shard_ms_per_frame(rung, head, children, tracer), "ms",
    )
    m["router.one_shard_jobs_per_s"] = (one.attempted / sum(one.walls), "1/s")
    m["router.items_per_frame"] = (two.attempted / frames, "count")
    m["supervisor.spawn_s"] = (min(two.setups + one.setups), "s")
    yard.sample()
    # Per-layer times are wall time as measured in this run; the yardstick
    # says how fast the machine was meanwhile (see yardstick.py).
    m["machine.yardstick_ms"] = (1e3 * fast_quartile(yard.samples), "ms")
    for arm in arms:
        result.attempted += arm.attempted
        result.failed += arm.errors
        result.problems += arm.problems

    gap = m["trace.layer_sum_gap_pct"][0]
    if spec.kind != "engine":
        verdict = f"information only: {size}-job head, two passes each"
    elif abs(gap) <= 10.0:
        verdict = "within the ROADMAP 10% gate"
    else:
        verdict = "OUTSIDE the ROADMAP 10% gate"
    result.notes.append(f"layer sums vs untraced per-request time: {gap:+.2f}% ({verdict})")
    path = os.path.join(OUT_DIR, f"trace_{spec.name}.json")
    write_trace(path, tracer.spans, {
        "workload": spec.name, "seed": seed, "ladder_jobs": size,
        "digests": result.digests,
    })
    result.notes.append(f"{len(tracer.spans)} spans written to {os.path.relpath(path)}")
    return result
