"""Admission control under node failures: the robustness section's runner.

Beyond the paper: real clusters lose nodes, and an admission control
that guaranteed a deadline on admission cannot keep the promise for a
job whose node dies.  :func:`run_with_failures` runs one scenario with
exponential node failure/repair cycles; the ``robustness`` section of
the paper record (:mod:`repro.experiments.record`) sweeps the MTBF for
each policy.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.failures import NodeFailureInjector
from repro.cluster.rms import ResourceManagementSystem
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.metrics.summary import compute_metrics
from repro.obs.session import active_sink
from repro.scheduling.registry import make_policy, policy_discipline
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams


def run_with_failures(
    config: ScenarioConfig,
    mtbf_hours: Optional[float],
    repair_hours: float = 2.0,
) -> dict[str, float]:
    """One scenario with (optional) failure injection.

    Returns ``ScenarioMetrics.as_dict()`` plus ``node_failures``, the
    number of failures injected (0 when ``mtbf_hours`` is None).  Like
    :func:`~repro.experiments.runner.run_scenario`, the run is observed
    when a :class:`~repro.obs.session.RunSink` is active (``--metrics-out``,
    ``--profile``).
    """
    sink = active_sink()
    session = sink.new_session(config) if sink is not None else None
    jobs = build_scenario_jobs(config)
    horizon_guess = max(j.submit_time for j in jobs) + 864_000.0
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
    if session is not None:
        session.attach(sim, rms, policy)
    rms.submit_all(jobs)

    injector = None
    if mtbf_hours is not None:
        injector = NodeFailureInjector(
            sim, cluster, policy, RngStreams(seed=config.seed).spawn("failures"),
            mtbf=mtbf_hours * 3600.0,
            repair_time=repair_hours * 3600.0,
            horizon=horizon_guess,
        )
        injector.start()
    sim.run()
    result = compute_metrics(rms.ledger, cluster, sim.now)
    if session is not None:
        session.finalize(metrics=result, sim=sim)
        sink.take(session)
    metrics = result.as_dict()
    metrics["node_failures"] = injector.failures_injected if injector else 0
    return metrics
