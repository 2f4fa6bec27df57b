"""The untraced run: N passes, the output oracle, the end-to-end metrics."""

from __future__ import annotations

from dataclasses import dataclass, field

from children import Children, peak_rss_mb
from estimators import (
    fast_quartile, floors, percentile, spread_summary, tail_percentile,
)
from streams import Spec, Stream, build_streams, digest, mismatches
from yardstick import REFERENCE_S, Yardstick
from workloads import (
    FLEET_SHARDS, PassResult, engine_pass, recover_wals, run_pass, setup_probe,
    write_wals,
)

@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # detail lines, printed first
    digests: list[str] = field(default_factory=list)  # per stream

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def check_passes(passes: list[PassResult], result: RunResult) -> None:
    """Oracle part 1: every pass decided every stream identically."""
    reference = passes[0]
    result.digests = result.digests or [digest(s) for s in reference.decisions]
    for p in passes:
        result.attempted += p.attempted
        result.failed += p.errors
        result.problems += p.problems
        for ref, got in zip(reference.decisions, p.decisions):
            result.failed += mismatches(ref, got)
        if p.met_pct != reference.met_pct:
            result.problems.append(
                f"deadlines met drifted between passes: {p.met_pct} vs {reference.met_pct}"
            )


def check_recovered(spec: Spec, stream: Stream, paths: list[str], k: int,
                    reference: PassResult, result: RunResult) -> tuple[float, int]:
    """Oracle part 2 (in-process and fleet workloads): restart from the log.

    The driver logged stream ``k`` as the server(s) would have; the
    engines ``wal.recover`` rebuilds from it are the other stack — WAL
    replay against direct submits, in-process shards against the HTTP
    fleet — so their merged decisions and metrics must equal the pass's.
    Returns the ``(seconds, records)`` sample.
    """
    recovered = recover_wals(paths, stream)
    result.attempted += len(stream.payloads)
    result.failed += mismatches(reference.decisions[k], recovered.decisions)
    if spec.kind == "engine" and recovered.pre_drain != [reference.pre_drain[k]]:
        result.problems.append("recovered metrics differ from the in-process engine")
    if recovered.met_pct != reference.met_pct[k]:
        result.problems.append(
            f"recovered deadlines met {recovered.met_pct} != {reference.met_pct[k]}"
        )
    return recovered.seconds, recovered.records


def check_served(streams: list[Stream], passes: list[PassResult], result: RunResult) -> None:
    """Oracle part 2 (serve): what the children decided over HTTP, and what
    ``wal.recover`` rebuilt after SIGKILL, equal a direct in-process replay."""
    direct = engine_pass(streams)
    for p in passes:
        for ref, got in zip(direct.decisions, p.decisions):
            result.failed += mismatches(ref, got)
        if p.pre_drain != direct.pre_drain or p.met_pct != direct.met_pct:
            result.problems.append(
                "recovered metrics differ from an in-process replay of the acked prefix"
            )


def run_untraced(spec: Spec, seed: int, children: Children) -> RunResult:
    """Passes with a yardstick sample, a cold-start probe and a restart
    interleaved, so every estimator samples the whole run and not one
    moment of it."""
    result = RunResult()
    yard = Yardstick()
    streams, _ = build_streams(spec, seed)
    shards = FLEET_SHARDS if spec.kind == "fleet" else 1
    logs = [] if spec.kind == "serve" else [write_wals(s, children, shards) for s in streams]
    setups: list[float] = []
    passes: list[PassResult] = []
    recovers: list[list[tuple[float, int]]] = [[] for _ in streams]
    for n in range(spec.passes):
        yard.sample()
        if spec.kind == "engine":
            setups.append(setup_probe(streams[0], children))
        passes.append(run_pass(spec, streams, children))
        setups += passes[-1].setups
        if logs:
            k = n % len(streams)
            recovers[k].append(
                check_recovered(spec, streams[k], logs[k], k, passes[-1], result)
            )
    yard.sample()
    check_passes(passes, result)
    if spec.kind == "serve":
        check_served(streams, passes, result)
        recovers = [[p.recovers[k] for p in passes] for k in range(len(streams))]
    recovers = [samples for samples in recovers if samples]

    jobs = sum(len(stream.payloads) for stream in streams)
    # Fast quartile per sub-stream, then summed: one disturbed stream in
    # an otherwise clean pass does not spoil the pass.
    loop_s = sum(fast_quartile([p.walls[k] for p in passes]) for k in range(len(streams)))
    recover_s = sum(fast_quartile([s for s, _ in samples]) for samples in recovers)
    records = sum(samples[0][1] for samples in recovers)
    floor = sorted(floors([p.latencies for p in passes]))
    tail_q = tail_percentile(len(floor))
    rss = peak_rss_mb() if spec.kind == "engine" else max(p.rss_mb for p in passes)

    # Timing metrics are reported at reference-machine speed: ``slow`` is
    # how much slower than the reference this machine ran during this run.
    slow = fast_quartile(yard.samples) / REFERENCE_S
    raw = {
        "setup_s": (fast_quartile(setups), "s"),
        "jobs_per_s": (jobs / loop_s, "1/s"),
        "request_p50_us": (1e6 * percentile(floor, 50.0), "us"),
        "request_tail_us": (1e6 * percentile(floor, tail_q), "us"),
        "recover_jobs_per_s": (records / recover_s, "1/s"),
    }
    result.metrics = {
        name: (value * slow if unit == "1/s" else value / slow, unit)
        for name, (value, unit) in raw.items()
    }
    result.metrics["peak_rss_mb"] = (rss, "MB")
    result.metrics["deadlines_met_pct"] = (sum(passes[0].met_pct) / len(streams), "%")
    pass_rates = [jobs / sum(p.walls) for p in passes]
    pass_p50 = [1e6 * percentile(sorted(p.latencies), 50.0) for p in passes]
    pass_tail = [1e6 * percentile(sorted(p.latencies), tail_q) for p in passes]
    result.notes = [
        f"passes={len(passes)} streams={len(streams)} jobs/pass={jobs} "
        f"requests/pass={len(floor)} tail=p{tail_q:g} (>= 10 samples beyond it)",
        f"over passes, median [q1..q3] (information only): "
        f"jobs_per_s {spread_summary(pass_rates)}; p50_us {spread_summary(pass_p50)}; "
        f"tail_us {spread_summary(pass_tail)}; setup_s {spread_summary(setups)}",
        f"recover: {sum(map(len, recovers))} samples over {len(recovers)} stream log(s), "
        f"{records} records; setup: {len(setups)} samples",
        f"machine: yardstick {1e3 * fast_quartile(yard.samples):.3f} ms (fast quartile of "
        f"{len(yard.samples)}) = {slow:.3f}x the reference {1e3 * REFERENCE_S:g} ms; "
        f"timing metrics below are scaled to the reference",
        "as measured: " + " ".join(f"{name}={value:.6g}" for name, (value, _) in raw.items()),
    ]
    return result
