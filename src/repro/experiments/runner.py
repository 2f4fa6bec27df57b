"""Run one scenario deterministically and collect its metrics.

The workload-construction streams are derived from the scenario seed
only (not from the policy), so two scenarios differing only in
``policy`` simulate **identical** job streams — the paper's comparisons
are paired, and so are ours.

Observability: pass an :class:`~repro.obs.session.ObsSession` to
:func:`run_scenario` (or install a :class:`~repro.obs.session.RunSink`
around any multi-run helper — figures, sweeps, :func:`run_policies`) and
every run records its admission decisions, lifecycle transitions and
final metrics; see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job
from repro.cluster.rms import ResourceManagementSystem
from repro.experiments.config import ScenarioConfig
from repro.metrics.summary import ScenarioMetrics, compute_metrics
from repro.obs.log import get_logger
from repro.scheduling.registry import make_policy, policy_discipline
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.workload.synthetic import generate_sdsc_like_records
from repro.workload.traces import TraceColumns, build_jobs, tail_subset

if TYPE_CHECKING:
    from repro.obs.session import ObsSession

log = get_logger("experiments.runner")


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one simulated scenario."""

    config: ScenarioConfig
    metrics: ScenarioMetrics
    #: Simulated horizon (time of the last event), seconds.
    horizon: float
    #: Kernel events fired.
    events: int
    #: Wall-clock seconds the simulation took.
    elapsed: float
    #: The finalized observability session, when the run was observed.
    obs: Optional[ObsSession] = None

    def __str__(self) -> str:
        m = self.metrics
        return (
            f"{self.config.label():40s} fulfilled={m.pct_deadlines_fulfilled:6.2f}% "
            f"slowdown={m.avg_slowdown:7.2f} accepted={m.acceptance_pct:6.2f}%"
        )


def load_base_records(config: ScenarioConfig) -> TraceColumns:
    """The base trace for a scenario, as columns: real SWF tail subset or synthetic."""
    if config.trace_path is not None:
        _, trace = TraceColumns.read_swf(config.trace_path)
        return tail_subset(trace, config.num_jobs)
    return generate_sdsc_like_records(config.synthetic_model(), RngStreams(seed=config.seed))


def build_scenario_jobs(config: ScenarioConfig) -> list[Job]:
    """Construct the exact job stream a scenario will submit."""
    return build_jobs(load_base_records(config), config.workload_spec(),
                      RngStreams(seed=config.seed))


def run_scenario(
    config: ScenarioConfig,
    jobs: Optional[Sequence[Job]] = None,
    obs: Optional[ObsSession] = None,
) -> ScenarioResult:
    """Simulate one scenario to completion and compute its metrics.

    Parameters
    ----------
    config:
        The scenario.
    jobs:
        Optional pre-built job stream.  **Must** be freshly built (jobs
        are stateful); passing one lets callers reuse the expensive
        record-generation step across policies via
        :func:`build_scenario_jobs`.
    obs:
        Optional observability session to attach to this run.  When
        omitted and a :class:`~repro.obs.session.RunSink` is active, a
        session is created automatically and its records handed to the
        sink; with neither, the run is completely uninstrumented (the
        hooks cost one ``is None`` check each).
    """
    from repro.obs.session import active_sink  # not needed to build jobs: a cold start skips it

    job_list = list(jobs) if jobs is not None else build_scenario_jobs(config)

    sink = active_sink() if obs is None else None
    session = obs if obs is not None else (
        sink.new_session(config) if sink is not None else None
    )

    t0 = time.perf_counter()
    sim = Simulator()
    cluster = Cluster.homogeneous(
        sim,
        config.num_nodes,
        rating=config.rating,
        discipline=policy_discipline(config.policy),
        share_params=config.share_params(),
    )
    policy = make_policy(config.policy, **config.policy_kwargs)
    rms = ResourceManagementSystem(sim, cluster, policy)
    if session is None:
        rms.submit_all(job_list)
        sim.run()
    else:
        session.attach(sim, rms, policy)
        with session.span("submit"):
            rms.submit_all(job_list)
        with session.span("run"):
            sim.run()
    elapsed = time.perf_counter() - t0

    if session is None:
        metrics = compute_metrics(rms.ledger, cluster, sim.now)
    else:
        with session.span("collect"):
            metrics = compute_metrics(rms.ledger, cluster, sim.now)
        session.finalize(metrics=metrics, sim=sim)
        if sink is not None:
            sink.take(session)
        log.info(
            "scenario %s: %d events in %.3fs wall-clock",
            config.label(), sim.events_fired, elapsed,
        )
    return ScenarioResult(
        config=config,
        metrics=metrics,
        horizon=sim.now,
        events=sim.events_fired,
        elapsed=elapsed,
        obs=session,
    )


def run_policies(
    base: ScenarioConfig,
    policies: Sequence[str | tuple[str, dict]],
) -> dict[str, ScenarioResult]:
    """Run the same scenario under several policies (paired comparison).

    ``policies`` entries are either a registry name or a
    ``(name, policy_kwargs)`` pair; the result key is the name (with a
    ``#i`` suffix on duplicates).
    """
    out: dict[str, ScenarioResult] = {}
    for entry in policies:
        if isinstance(entry, str):
            name, kwargs = entry, {}
        else:
            name, kwargs = entry
        config = base.replace(policy=name, policy_kwargs=dict(kwargs))
        key = name
        i = 1
        while key in out:
            i += 1
            key = f"{name}#{i}"
        out[key] = run_scenario(config)
    return out
