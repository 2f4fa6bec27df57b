"""Tests for the abstract policy machinery in base.py."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.job import JobState
from repro.cluster.rms import ResourceManagementSystem
from repro.scheduling.base import SchedulingPolicy
from repro.sim.kernel import Simulator
from tests.conftest import job_fields, make_job


class RecordingPolicy(SchedulingPolicy):
    """Minimal concrete policy for probing the base-class machinery."""

    name = "recording"
    discipline = "time_shared"

    def __init__(self):
        super().__init__()
        self.submitted = []
        self.completed = []

    def on_job_submitted(self, job, now):
        self.submitted.append((job.job_id, now))
        # Immediately run on node 0.
        node = self.cluster.node(0)
        job.mark_running(now, [0])
        self._track(job)
        self.rms.notify_accepted(job)
        node.add_task(job, work=self.cluster.work_of(job.runtime),
                      est_work=self.cluster.work_of(job.estimated_runtime), now=now)

    def on_job_completed(self, job, now):
        self.completed.append((job.job_id, now))


def wire(policy=None, num_nodes=2):
    sim = Simulator()
    cluster = Cluster.homogeneous(sim, num_nodes, rating=1.0, discipline="time_shared")
    policy = policy or RecordingPolicy()
    rms = ResourceManagementSystem(sim, cluster, policy)
    return sim, cluster, policy, rms


class TestBinding:
    def test_bind_installs_listener_on_every_node(self):
        _, cluster, policy, _ = wire()
        assert all(n.listener == policy._task_listener for n in cluster)

    def test_double_bind_rejected(self):
        sim, cluster, policy, _ = wire()
        with pytest.raises(RuntimeError, match="already has a listener"):
            ResourceManagementSystem(sim, cluster, RecordingPolicy())


class TestCompletionTracking:
    def test_multi_node_job_completes_once(self):
        sim, cluster, policy, rms = wire()
        job = make_job(runtime=10.0, deadline=100.0, numproc=2, job_id=1)
        job.mark_submitted()
        rms.ledger.arrive(job)  # as the RMS records an arrival
        job.mark_running(0.0, [0, 1])
        policy._track(job)
        rms.notify_accepted(job)
        for nid in (0, 1):
            cluster.node(nid).add_task(job, work=10.0, est_work=10.0, now=0.0)
        sim.run()
        assert policy.completed == [(1, pytest.approx(100.0))]
        assert [job_fields(j) for j in rms.completed] == [job_fields(job)]

    def test_running_jobs_property(self):
        sim, cluster, policy, rms = wire()
        rms.submit_all([make_job(runtime=10.0, deadline=100.0)])
        sim.run(until=1.0)
        assert policy.running_jobs == 1
        sim.run()
        assert policy.running_jobs == 0

    def test_untracked_completion_is_an_error(self):
        sim, cluster, policy, _ = wire()
        job = make_job(runtime=10.0, deadline=100.0)
        job.mark_submitted()
        job.mark_running(0.0, [0])
        # Deliberately NOT tracked.
        cluster.node(0).add_task(job, work=10.0, est_work=10.0, now=0.0)
        with pytest.raises(RuntimeError, match="untracked job"):
            sim.run()


class TestRejectHelper:
    def test_reject_marks_and_notifies(self):
        _, _, policy, rms = wire()
        job = make_job()
        job.mark_submitted()
        rms.ledger.arrive(job)  # as the RMS records an arrival
        policy._reject(job, "because")
        assert job.state is JobState.REJECTED
        assert job.reject_reason == "because"
        assert [job_fields(j) for j in rms.rejected] == [job_fields(job)]


class TestFailureHooks:
    def test_fail_job_cleans_pending_and_siblings(self):
        sim, cluster, policy, rms = wire()
        job = make_job(runtime=50.0, deadline=500.0, numproc=2, job_id=1)
        job.mark_submitted()
        job.mark_running(0.0, [0, 1])
        policy._track(job)
        rms.notify_accepted(job)
        for nid in (0, 1):
            cluster.node(nid).add_task(job, work=50.0, est_work=50.0, now=0.0)
        policy.handle_node_failure(cluster.node(0), 1.0)
        assert job.state is JobState.FAILED
        assert policy.running_jobs == 0
        assert not cluster.node(1).has_job(1)
        sim.run()  # no stray completion events blow up

    def test_repair_hook_called(self):
        sim, cluster, policy, _ = wire()
        calls = []
        policy.on_node_repair = lambda node, now: calls.append(node.node_id)
        policy.handle_node_failure(cluster.node(0), 0.0)
        policy.handle_node_repair(cluster.node(0), 5.0)
        assert calls == [0]
        assert cluster.node(0).online
