"""Workload definitions and the seeded request streams they replay.

Every input is generated here, in the driver, from ``--seed``; the
program under test sees only the jobs.  A workload's input is ``streams``
independent sub-streams (sub-seed ``seed + k * SUB_SEED_STRIDE``, so
stream 0 is exactly ``ScenarioConfig(seed=<seed>)``), each served by a
fresh stack in every pass.  Several short sub-streams rather than one
long one because the cost of a synthetic SDSC-SP2 stream is set by
stream-level luck (a few huge long jobs fix the occupancy regime): the
seed-to-seed spread of projections per job is ~15-20 % whether a stream
has 500 or 3000 jobs, and only averaging independent streams shrinks it.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Iterable, Sequence

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.service.loadgen import job_request_payload

SUB_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Spec:
    """One workload: which stack, at what scale, replayed how often."""

    name: str
    kind: str  # "engine" | "serve" | "fleet"
    why: str
    policy: str
    nodes: int
    jobs: int  # per sub-stream
    streams: int
    passes: int  # at the default --seconds
    batch: int = 1  # jobs per request frame (fleet)
    query_every: int = 0  # serve: a query after every n-th submit


#: Pass counts are calibrated so one run measures for about
#: ``DEFAULT_SECONDS`` on a 2-vCPU VM; ``--seconds`` scales them.
DEFAULT_SECONDS = 20

SPECS = (
    Spec(
        name="engine_risk", kind="engine",
        why="paper base scenario (librarisk x 128 nodes): the LibraRisk node "
            "scan is ~87% of a submit, so scan/ledger changes show here",
        policy="librarisk", nodes=128, jobs=1000, streams=6, passes=5,
    ),
    Spec(
        name="engine_edf_wide", kind="engine",
        why="scale axis (edf x 1024 nodes, 30k jobs): scan cost is nil, so sim "
            "kernel, EDF queue, engine bookkeeping and telemetry do the work",
        policy="edf", nodes=1024, jobs=10000, streams=3, passes=6,
    ),
    Spec(
        name="serve_durable", kind="serve",
        why="one repro-serve child with a batch-fsync WAL over HTTP, queries "
            "beside submits, SIGKILL + recover: wire, protocol, server, wal",
        policy="libra", nodes=128, jobs=500, streams=3, passes=5,
        query_every=10,
    ),
    Spec(
        name="fleet2_batch", kind="fleet",
        why="ShardRouter + two shard children, batch frames of 32: split/merge, "
            "per-frame fan-out and two-process parallelism matter only here",
        policy="librarisk", nodes=128, jobs=3000, streams=2, passes=5,
        batch=32,
    ),
)

SPEC_BY_NAME = {spec.name: spec for spec in SPECS}


def scaled(spec: Spec, seconds: float, smoke: bool) -> Spec:
    """The spec at the requested run length (or the tiny ``--smoke`` scale)."""
    if smoke:
        return replace(spec, nodes=32, jobs=300, streams=1, passes=2)
    passes = max(2, round(spec.passes * seconds / DEFAULT_SECONDS))
    return replace(spec, passes=passes)


@dataclass
class Stream:
    """One seeded sub-stream: its scenario and pristine template jobs."""

    config: ScenarioConfig
    templates: list[Any]  # never submitted; copied per pass
    payloads: list[dict[str, Any]]  # the wire form of the same jobs

    def fresh_jobs(self) -> list[Any]:
        """New ``Job`` objects for one pass (submission mutates a job)."""
        return [copy.copy(job) for job in self.templates]


def build_streams(spec: Spec, seed: int) -> tuple[list[Stream], float]:
    """The workload's sub-streams and the wall seconds generating them took."""
    streams = []
    t0 = perf_counter()
    for k in range(spec.streams):
        config = ScenarioConfig(
            policy=spec.policy, num_nodes=spec.nodes, num_jobs=spec.jobs,
            seed=seed + k * SUB_SEED_STRIDE,
        )
        streams.append(Stream(config, build_scenario_jobs(config), []))
    build_s = perf_counter() - t0
    for stream in streams:
        stream.payloads = [job_request_payload(job) for job in stream.templates]
    return streams, build_s


# -- the output oracle --------------------------------------------------------

Decision = tuple[int, str, str]  # (job id, outcome, reason)


def decisions_of_engine(engine: Any) -> list[Decision]:
    return [(d.job_id, d.outcome, d.reason) for d in engine.decisions]


def decision_of_response(response: dict[str, Any]) -> Decision:
    """The decision inside one ok ``submit`` response envelope."""
    d = response["decision"]
    return (d["job"], d["outcome"], d.get("reason", ""))


def digest(decisions: Iterable[Decision]) -> str:
    """SHA-256 over the ordered ``(job, outcome, reason)`` stream."""
    h = hashlib.sha256()
    for job_id, outcome, reason in decisions:
        h.update(f"{job_id}\t{outcome}\t{reason}\n".encode("utf-8"))
    return h.hexdigest()


def mismatches(reference: Sequence[Decision], got: Sequence[Decision]) -> int:
    """Requests whose decision differs from the reference stream."""
    differing = sum(1 for a, b in zip(reference, got) if a != b)
    return differing + abs(len(reference) - len(got))
