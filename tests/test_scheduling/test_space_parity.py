"""One completion event per job vs one per task: identical outcomes.

``start_job_tasks`` groups a job's tasks that finish at the same instant
under one kernel event.  The reference here is the event structure the
group replaces — every queue-based space-shared policy with ``_start``
overridden to call ``start_task`` once per node — run over the same
paper-scale stream, and over a heterogeneous cluster with node failures.
Outcomes, per-job times, node ledgers and metrics must match exactly;
only the kernel's event count may differ.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.failures import NodeFailureInjector
from repro.cluster.rms import ResourceManagementSystem
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.metrics.summary import compute_metrics
from repro.scheduling.registry import make_policy
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams

SPACE_SHARED = ("edf", "fcfs", "edf-easy", "conservative", "qops-slack")


def per_task_events(policy):
    """Rebind ``policy._start`` to start (and time) every task on its own."""
    def _start(job, nodes, now):
        work = policy.cluster.work_of(job.runtime)
        job.mark_running(now, [n.node_id for n in nodes])
        policy._track(job)
        policy.rms.notify_accepted(job)
        for node in nodes:
            node.start_task(job, work, now)

    policy._start = _start
    return policy


def simulate(config, per_task, ratings=None, mtbf=None):
    sim = Simulator()
    if ratings is None:
        cluster = Cluster.homogeneous(
            sim, config.num_nodes, rating=config.rating, discipline="space_shared"
        )
    else:
        cluster = Cluster.heterogeneous(
            sim, ratings, discipline="space_shared", reference_rating=config.rating
        )
    policy = make_policy(config.policy)
    if per_task:
        per_task_events(policy)
    rms = ResourceManagementSystem(sim, cluster, policy)
    jobs = build_scenario_jobs(config)
    rms.submit_all(jobs)
    if mtbf is not None:
        NodeFailureInjector(
            sim, cluster, policy, RngStreams(seed=config.seed), mtbf=mtbf,
            repair_time=mtbf / 20.0, horizon=jobs[-1].submit_time,
        ).start()
    sim.run()
    outcome = {
        "jobs": [
            (j.job_id, j.state.value, j.start_time, j.finish_time, tuple(j.assigned_nodes))
            for j in rms.jobs
        ],
        "nodes": [(n.busy_time, n.failures, n.online) for n in cluster],
        "metrics": compute_metrics(rms.jobs, cluster, sim.now).as_dict(),
        "order": [j.job_id for j in rms.completed],
    }
    return outcome, sim.events_fired


@pytest.mark.parametrize("policy", SPACE_SHARED)
def test_paper_scale_outcomes_equal_per_task_events(policy):
    config = ScenarioConfig(policy=policy)  # 3000 jobs x 128 nodes
    grouped, grouped_events = simulate(config, per_task=False)
    reference, reference_events = simulate(config, per_task=True)
    assert grouped == reference
    # Homogeneous cluster: exactly one completion event per started job.
    started = sum(1 for j in grouped["jobs"] if j[2] is not None)
    assert grouped_events == config.num_jobs + started
    assert reference_events > grouped_events


@pytest.mark.parametrize("policy", SPACE_SHARED)
def test_mixed_ratings_with_failures_equal_per_task_events(policy):
    config = ScenarioConfig(policy=policy, num_jobs=400, num_nodes=24, seed=11)
    ratings = [config.rating * (1.0, 1.5, 0.75)[i % 3] for i in range(config.num_nodes)]
    grouped, _ = simulate(config, per_task=False, ratings=ratings, mtbf=2.0e5)
    reference, _ = simulate(config, per_task=True, ratings=ratings, mtbf=2.0e5)
    assert any(state == "failed" for _, state, *_ in grouped["jobs"])
    assert grouped == reference
