"""Space-shared dispatch against its witnesses: identical outcomes.

Two references run beside the production policies.

* One completion event per job vs one per task: ``Cluster.occupy``
  groups a job's tasks that finish at the same instant under one kernel
  event.  The reference is the event structure the group replaces --
  every queue-based space-shared policy with ``_start`` overridden to
  start each node on its own -- run over the same paper-scale stream,
  and over a heterogeneous cluster with node failures.  Only the
  kernel's event count may differ.
* The per-node walk (``tests/test_scheduling/reference_walk.py``): the
  production dispatch finds, takes and frees a job's nodes by scans and
  slices of the cluster's occupancy list; the witness walks the nodes.
  Random interleavings of submits, node failures, repairs and sibling
  removals, on homogeneous and mixed-rating clusters and on one whose
  node ids are not ``0..n-1`` in list order, must give the same chosen
  node ids, per-job times, ``busy_time`` bits, event counts and
  checkpoint bytes.
"""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.failures import NodeFailureInjector
from repro.cluster.node import SpaceSharedNode
from repro.cluster.rms import ResourceManagementSystem
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_scenario_jobs
from repro.metrics.summary import compute_metrics
from repro.scheduling.registry import make_policy
from repro.service import checkpoint
from repro.service.engine import AdmissionEngine, EngineConfig
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from tests.conftest import heterogeneous_cluster, make_job

SPACE_SHARED = ("edf", "fcfs")


def positions(where):
    """The positions a dispatch chose, in start order."""
    return range(where.start, where.stop) if isinstance(where, slice) else where


def per_task_events(policy):
    """Rebind ``policy._start`` to start (and time) every task on its own."""
    def _start(job, where, now):
        cluster = policy.cluster
        nodes = [cluster.nodes[pos] for pos in positions(where)]
        work = cluster.work_of(job.runtime)
        job.mark_running(now, [n.node_id for n in nodes])
        policy._track(job)
        policy.rms.notify_accepted(job)
        for node in nodes:
            cluster.start_job(job, [node], work, now)

    policy._start = _start
    return policy


def simulate(config, per_task, ratings=None, mtbf=None):
    sim = Simulator()
    if ratings is None:
        cluster = Cluster.homogeneous(
            sim, config.num_nodes, rating=config.rating, discipline="space_shared"
        )
    else:
        cluster = heterogeneous_cluster(
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
        "metrics": compute_metrics(rms.ledger, cluster, sim.now).as_dict(),
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


NODES = 16
SHAPES = ("homogeneous", "mixed_ratings", "shuffled_ids")


def shaped_cluster(shape, sim, rating):
    """``NODES`` space-shared nodes: one rating, three, or ids out of list order."""
    ids = list(range(NODES))
    ratings = [rating] * NODES
    if shape == "mixed_ratings":
        ratings = [rating * (1.0, 1.5, 0.75)[i % 3] for i in range(NODES)]
    elif shape == "shuffled_ids":
        ids = random.Random(5).sample(range(100, 100 + 3 * NODES), NODES)
    nodes = [SpaceSharedNode(i, r, sim) for i, r in zip(ids, ratings)]
    return Cluster(nodes, reference_rating=rating)


def interleaving(seed, ops=300):
    """Submits (70 %) between node failures, repairs and sibling removals."""
    rng = random.Random(seed)
    t, script = 0.0, []
    for k in range(ops):
        t += rng.expovariate(1 / 12.0)
        if rng.random() < 0.7:
            runtime = rng.uniform(20.0, 200.0)
            script.append(("submit", t, dict(
                job_id=k + 1, runtime=runtime,
                estimate=runtime * rng.uniform(0.6, 1.6),
                numproc=rng.choice((1, 1, 2, 3, 4, 6, 8, 12, 16)),
                deadline=runtime * rng.uniform(1.0, 6.0),
            )))
        else:
            script.append((rng.choice(("fail", "repair", "remove")), t, rng.randrange(1 << 30)))
    return script


def drive(shape, policy, script, monkeypatch, starts=None):
    """Play ``script`` on an engine over ``shape``; everything the arms must share."""
    with monkeypatch.context() as patch:
        patch.setattr(Cluster, "homogeneous", staticmethod(
            lambda sim, num_nodes, rating, **kw: shaped_cluster(shape, sim, rating)
        ))
        engine = AdmissionEngine(EngineConfig(policy=policy, num_nodes=NODES, rating=1.0))
    if starts is not None:
        occupy = engine.cluster.occupy

        def counted(job, where, work, start):
            starts.append(type(where).__name__)
            occupy(job, where, work, start)

        engine.cluster.occupy = counted
    checkpoints = []
    for i, (kind, t, arg) in enumerate(script):
        if kind == "submit":
            engine.submit(make_job(submit=t, **arg))
        else:
            engine.advance(t)
            nodes = engine.cluster.nodes
            if kind == "fail":
                up = [n for n in nodes if n.online]
                if up:
                    engine.policy.handle_node_failure(up[arg % len(up)], engine.now)
            elif kind == "repair":
                down = [n for n in nodes if not n.online]
                if down:
                    engine.policy.handle_node_repair(down[arg % len(down)], engine.now)
            else:  # one member of a running job leaves it; the job runs on
                busy = [n for n in nodes if n.tasks]
                if busy:
                    node = busy[arg % len(busy)]
                    (job_id,) = node.tasks
                    node.remove_task(job_id, engine.now)
        if i % 25 == 24:
            checkpoints.append(checkpoint.dumps(checkpoint.snapshot(engine)))
    engine.drain()
    checkpoints.append(checkpoint.dumps(checkpoint.snapshot(engine)))
    return {
        "jobs": [
            (j.job_id, j.state.value, j.start_time, j.finish_time, tuple(j.assigned_nodes))
            for j in engine.rms.jobs
        ],
        "busy_time": [n.busy_time.hex() for n in engine.cluster],
        "events": engine.sim.events_fired,
        "checkpoints": checkpoints,
        "metrics": engine.metrics().as_dict(),
    }


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("policy", SPACE_SHARED)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_interleavings_equal_the_per_node_walk(shape, policy, seed, monkeypatch, reference_walk):
    script = interleaving(seed)
    starts: list[str] = []
    production = drive(shape, policy, script, monkeypatch, starts)
    with reference_walk():
        witness = drive(shape, policy, script, monkeypatch)
    for key in ("jobs", "busy_time", "events", "metrics"):
        assert production[key] == witness[key], key
    # Long documents: name the first that differs, not a diff of all.
    differ = [i for i, (a, b) in enumerate(zip(production["checkpoints"], witness["checkpoints"]))
              if a != b]
    assert not differ, f"checkpoints {differ} differ"
    states = [j[1] for j in production["jobs"]]
    assert {"completed", "failed", "rejected"} <= set(states)
    assert {"slice", "list"} <= set(starts)  # both ways of taking nodes ran
