"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

# Before the sanitizer patches ``time``: hypothesis keeps its own
# reference to ``perf_counter`` for a gc callback, and a collection can
# start inside an engine decision span.
import hypothesis  # noqa: F401
import pytest

from repro.analysis import sanitizer
from repro.cluster.cluster import Cluster
from repro.cluster.job import Job, JobState, UrgencyClass
from repro.cluster.ledger import JobLedger
from repro.cluster.node import Node, SpaceSharedNode, TimeSharedNode
from repro.cluster.rms import ResourceManagementSystem
from repro.cluster.share import ShareParams
from repro.scheduling.registry import make_policy, policy_discipline
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams

# REPRO_SANITIZE=1 runs the whole suite with the determinism sanitizer
# armed: wall-clock/entropy reads inside engine decision spans raise.
sanitizer.install_from_env()


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RngStreams:
    return RngStreams(seed=1234)


def make_job(
    runtime: float = 100.0,
    estimate: float | None = None,
    numproc: int = 1,
    deadline: float = 200.0,
    submit: float = 0.0,
    urgency: UrgencyClass = UrgencyClass.LOW,
    job_id: int | None = None,
) -> Job:
    """A job with convenient defaults for unit tests."""
    return Job(
        runtime=runtime,
        estimated_runtime=estimate if estimate is not None else runtime,
        numproc=numproc,
        deadline=deadline,
        submit_time=submit,
        urgency=urgency,
        job_id=job_id,
    )


def job_fields(job: Job) -> tuple:
    """Every field of ``job``: an RMS hands a finished job back as a new
    object read from its ledger row, equal field for field."""
    return tuple(
        tuple(job.assigned_nodes) if name == "assigned_nodes" else getattr(job, name)
        for name in Job.__slots__
    )


def ledger_of(jobs: list[Job]) -> JobLedger:
    """A ledger of ``jobs`` as an RMS records them: every submitted job
    arrives in list order, a started one is accepted, a finished one retires."""
    ledger = JobLedger()
    for job in jobs:
        if job.state is JobState.CREATED:
            continue
        ledger.arrive(job)
        if job.start_time is not None:
            ledger.accept(job)
        if job.state in (JobState.COMPLETED, JobState.REJECTED, JobState.FAILED):
            ledger.retire(job)
    return ledger


def heterogeneous_cluster(
    sim: Simulator,
    ratings: list[float],
    discipline: str = "time_shared",
    reference_rating: float | None = None,
) -> Cluster:
    """A cluster with per-node SPEC ratings (node ``i`` has ``ratings[i]``).

    Runtimes are expressed at ``reference_rating``, by default the
    slowest node's, so estimates shrink on faster nodes (paper §3).
    """
    node_cls = TimeSharedNode if discipline == "time_shared" else SpaceSharedNode
    nodes: list[Node] = [node_cls(i, r, sim) for i, r in enumerate(ratings)]
    return Cluster(nodes, reference_rating=reference_rating or min(ratings))


def run_jobs(
    policy_name: str,
    jobs: list[Job],
    num_nodes: int = 4,
    rating: float = 1.0,
    share_params: ShareParams | None = None,
    **policy_kwargs,
):
    """Run a tiny end-to-end simulation; returns (rms, sim, cluster).

    ``rating=1.0`` makes work equal runtime in seconds, which keeps
    hand-computed expectations simple.
    """
    sim = Simulator()
    cluster = Cluster.homogeneous(
        sim,
        num_nodes,
        rating=rating,
        discipline=policy_discipline(policy_name),
        share_params=share_params or ShareParams(),
    )
    rms = ResourceManagementSystem(sim, cluster, make_policy(policy_name, **policy_kwargs))
    rms.submit_all(jobs)
    sim.run()
    return rms, sim, cluster
