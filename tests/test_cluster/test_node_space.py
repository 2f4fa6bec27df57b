"""Tests for the space-shared node (EDF's execution discipline)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import SpaceSharedNode, start_job_tasks
from repro.cluster.rms import ResourceManagementSystem
from repro.scheduling.registry import make_policy
from repro.sim.kernel import Simulator
from tests.conftest import make_job


def make_node(sim, rating=1.0, listener=None):
    return SpaceSharedNode(0, rating, sim, listener=listener)


class TestExecution:
    def test_task_completes_after_work_over_rating(self, sim):
        done = []
        node = make_node(sim, rating=2.0, listener=lambda n, t, now: done.append(now))
        job = make_job(runtime=100.0)
        node.start_task(job, work=100.0, now=0.0)  # 100 work / rating 2 = 50 s
        sim.run()
        assert done == [50.0]
        assert node.idle

    def test_node_busy_while_running(self, sim):
        node = make_node(sim)
        node.start_task(make_job(), work=10.0, now=0.0)
        assert not node.available
        assert node.num_tasks == 1

    def test_second_task_rejected_while_busy(self, sim):
        node = make_node(sim)
        node.start_task(make_job(), work=10.0, now=0.0)
        with pytest.raises(RuntimeError, match="already busy"):
            node.start_task(make_job(), work=10.0, now=0.0)

    def test_sequential_tasks_after_completion(self, sim):
        done = []
        node = make_node(sim, listener=lambda n, t, now: done.append((t.job.job_id, now)))
        a, b = make_job(job_id=1), make_job(job_id=2)
        node.start_task(a, work=10.0, now=0.0)
        sim.run()
        node.start_task(b, work=5.0, now=sim.now)
        sim.run()
        assert done == [(1, 10.0), (2, 15.0)]

    def test_busy_time_accumulates_work(self, sim):
        node = make_node(sim, rating=4.0)
        node.start_task(make_job(), work=100.0, now=0.0)
        sim.run()
        assert node.busy_time == pytest.approx(100.0)

    def test_utilisation(self, sim):
        node = make_node(sim, rating=2.0)
        node.start_task(make_job(), work=100.0, now=0.0)  # busy 50 s
        sim.run()
        # over a 100 s horizon: 100 work / (2 rating * 100 s) = 0.5
        assert node.utilisation(100.0) == pytest.approx(0.5)

    def test_utilisation_zero_horizon(self, sim):
        node = make_node(sim)
        assert node.utilisation(0.0) == 0.0

    def test_listener_sees_empty_node(self, sim):
        states = []
        node = make_node(sim)
        node.listener = lambda n, t, now: states.append(n.idle)
        node.start_task(make_job(), work=1.0, now=0.0)
        sim.run()
        assert states == [True]  # task removed before notification


class TestValidation:
    def test_bad_rating_rejected(self, sim):
        with pytest.raises(ValueError):
            SpaceSharedNode(0, 0.0, sim)

    def test_has_job(self, sim):
        node = make_node(sim)
        job = make_job(job_id=9)
        node.start_task(job, work=10.0, now=0.0)
        assert node.has_job(9)
        assert not node.has_job(10)


def make_nodes(sim, ratings, log=None):
    listener = None
    if log is not None:
        listener = lambda n, t, now: log.append((n.node_id, now))  # noqa: E731
    return [SpaceSharedNode(i, r, sim, listener=listener) for i, r in enumerate(ratings)]


def run_edf_on(ratings, job, until):
    """Submit ``job`` to EDF over a heterogeneous cluster; run to ``until``."""
    sim = Simulator()
    cluster = Cluster.heterogeneous(
        sim, ratings, discipline="space_shared", reference_rating=1.0
    )
    rms = ResourceManagementSystem(sim, cluster, make_policy("edf"))
    rms.submit(job)
    sim.run(until=until)
    return rms, sim, cluster


class TestJobStart:
    """`start_job_tasks`: one completion event per job and completion instant."""

    def test_homogeneous_job_schedules_one_event(self, sim):
        log = []
        nodes = make_nodes(sim, (1.0, 1.0, 1.0), log)
        start_job_tasks(make_job(numproc=3, job_id=5), nodes, work=10.0, start=0.0)
        assert [e.name for e in sim.iter_pending()] == ["job5:done"]
        sim.run()
        assert sim.events_fired == 1
        assert log == [(0, 10.0), (1, 10.0), (2, 10.0)]

    def test_mixed_ratings_group_by_completion_instant(self, sim):
        log = []
        nodes = make_nodes(sim, (2.0, 2.0, 1.0, 1.0), log)
        start_job_tasks(make_job(numproc=4), nodes, work=100.0, start=0.0)
        assert sim.pending == 2
        sim.run(until=50.0)
        # The fast pair frees first, in start order; the slow pair still runs.
        assert log == [(0, 50.0), (1, 50.0)]
        assert [n.idle for n in nodes] == [True, True, False, False]
        sim.run()
        assert log == [(0, 50.0), (1, 50.0), (2, 100.0), (3, 100.0)]
        assert sim.events_fired == 2

    def test_interleaved_ratings_keep_start_order_within_a_group(self, sim):
        log = []
        nodes = make_nodes(sim, (2.0, 1.0, 2.0, 1.0), log)
        start_job_tasks(make_job(numproc=4), nodes, work=100.0, start=0.0)
        sim.run()
        assert log == [(0, 50.0), (2, 50.0), (1, 100.0), (3, 100.0)]

    def test_busy_time_equals_one_start_per_node(self, sim):
        ratings = (2.0, 2.0, 1.0, 1.0)
        grouped = make_nodes(sim, ratings)
        start_job_tasks(make_job(numproc=4), grouped, work=100.0, start=0.0)
        single = make_nodes(sim, ratings)
        job = make_job(numproc=4)
        for node in single:
            node.start_task(job, work=100.0, now=0.0)
        sim.run()
        assert [n.busy_time for n in grouped] == [n.busy_time for n in single]
        assert all(n.busy_time == 100.0 for n in grouped)

    def test_busy_node_is_refused(self, sim):
        nodes = make_nodes(sim, (1.0, 1.0))
        nodes[1].start_task(make_job(), work=5.0, now=0.0)
        with pytest.raises(RuntimeError, match="already busy"):
            start_job_tasks(make_job(numproc=2), nodes, work=5.0, start=0.0)


class TestKilledMembers:
    def test_failed_member_kills_job_once_and_later_event_is_a_noop(self):
        rms, sim, cluster = run_edf_on((2.0, 2.0, 1.0, 1.0), make_job(
            runtime=100.0, numproc=4, deadline=500.0, job_id=1,
        ), until=10.0)
        assert sim.pending == 2
        rms.policy.handle_node_failure(cluster.node(3), sim.now)
        job = rms.jobs[0]
        assert rms.failed == [job]
        assert all(n.idle for n in cluster)
        busy = [n.busy_time for n in cluster]
        assert busy == [20.0, 20.0, 10.0, 10.0]  # elapsed 10 s x rating
        sim.run()  # both group events fire on an empty job
        assert sim.events_fired == 3  # the arrival + two no-ops
        assert rms.failed == [job] and rms.completed == []
        assert [n.busy_time for n in cluster] == busy

    def test_new_job_on_a_freed_node_survives_the_stale_event(self, sim):
        log = []
        nodes = make_nodes(sim, (1.0, 1.0), log)
        old = make_job(numproc=2, job_id=1)
        start_job_tasks(old, nodes, work=10.0, start=0.0)
        sim.run(until=4.0)
        assert nodes[1].remove_task(1, sim.now) is not None
        new = make_job(job_id=2)
        task = nodes[1].start_task(new, work=20.0, now=sim.now)
        sim.run(until=10.0)  # the old job's event: node 0 completes, node 1 is skipped
        assert log == [(0, 10.0)]
        assert nodes[1].tasks == {2: task}
        assert nodes[1].busy_time == 4.0  # only the removed task's elapsed share
        sim.run()
        assert log == [(0, 10.0), (1, 24.0)]
        assert nodes[1].busy_time == 24.0

    def test_same_job_restarted_on_the_node_is_not_completed_early(self, sim):
        log = []
        (node,) = make_nodes(sim, (1.0,), log)
        job = make_job(job_id=1)
        node.start_task(job, work=10.0, now=0.0)
        sim.run(until=4.0)
        node.remove_task(1, sim.now)
        node.start_task(job, work=10.0, now=sim.now)  # same job id, new task
        sim.run(until=10.0)
        assert log == [] and node.has_job(1)
        sim.run()
        assert log == [(0, 14.0)]
