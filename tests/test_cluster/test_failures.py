"""Tests for node failure/repair semantics."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.failures import NodeFailureInjector
from repro.cluster.job import JobState
from repro.cluster.rms import ResourceManagementSystem
from repro.scheduling.registry import make_policy, policy_discipline
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from tests.conftest import job_fields, make_job


def setup(policy_name, num_nodes=3):
    sim = Simulator()
    cluster = Cluster.homogeneous(
        sim, num_nodes, rating=1.0, discipline=policy_discipline(policy_name)
    )
    policy = make_policy(policy_name)
    rms = ResourceManagementSystem(sim, cluster, policy)
    return sim, cluster, policy, rms


class TestManualFailure:
    def test_failing_node_kills_its_job(self):
        sim, cluster, policy, rms = setup("libra")
        rms.submit_all([make_job(runtime=100.0, deadline=1000.0, job_id=1)])
        sim.run(until=10.0)
        victim_node = cluster.node(rms.accepted[0].assigned_nodes[0])
        policy.handle_node_failure(victim_node, 10.0)
        job = rms.jobs[0]
        assert job.state is JobState.FAILED
        assert [job_fields(j) for j in rms.failed] == [job_fields(job)]
        assert not victim_node.online
        sim.run()
        assert rms.jobs[0].state is JobState.FAILED  # stays failed

    def test_multinode_job_loses_sibling_tasks(self):
        sim, cluster, policy, rms = setup("libra")
        rms.submit_all([make_job(runtime=100.0, deadline=1000.0, numproc=2, job_id=1)])
        sim.run(until=10.0)
        job = rms.accepted[0]
        a, b = job.assigned_nodes
        policy.handle_node_failure(cluster.node(a), 10.0)
        # The sibling task on the surviving node is gone too.
        assert not cluster.node(b).has_job(1)
        assert job.state is JobState.FAILED

    def test_offline_node_not_used_by_libra(self):
        sim, cluster, policy, rms = setup("libra", num_nodes=1)
        policy.handle_node_failure(cluster.node(0), 0.0)
        rms.submit_all([make_job(runtime=10.0, deadline=100.0, submit=1.0)])
        sim.run()
        assert len(rms.rejected) == 1

    def test_offline_node_not_used_by_librarisk(self):
        sim, cluster, policy, rms = setup("librarisk", num_nodes=1)
        policy.handle_node_failure(cluster.node(0), 0.0)
        rms.submit_all([make_job(runtime=10.0, deadline=100.0, submit=1.0)])
        sim.run()
        assert len(rms.rejected) == 1

    def test_offline_node_not_used_by_edf(self):
        sim, cluster, policy, rms = setup("edf", num_nodes=2)
        policy.handle_node_failure(cluster.node(0), 0.0)
        rms.submit_all([make_job(runtime=10.0, deadline=10_000.0, numproc=2, submit=1.0)])
        sim.run(until=500.0)
        # Needs 2 nodes, only 1 online: still queued.
        assert len(policy.queue) == 1

    def test_repair_restores_capacity(self):
        sim, cluster, policy, rms = setup("edf", num_nodes=2)
        policy.handle_node_failure(cluster.node(0), 0.0)
        rms.submit_all([make_job(runtime=10.0, deadline=10_000.0, numproc=2, submit=1.0)])
        sim.run(until=50.0)
        policy.handle_node_repair(cluster.node(0), 50.0)
        sim.run()
        assert len(rms.completed) == 1
        assert rms.completed[0].start_time == pytest.approx(50.0)

    def test_queued_jobs_survive_failure(self):
        sim, cluster, policy, rms = setup("edf", num_nodes=1)
        rms.submit_all([
            make_job(runtime=100.0, deadline=100_000.0, submit=0.0, job_id=1),
            make_job(runtime=10.0, deadline=100_000.0, submit=1.0, job_id=2),
        ])
        sim.run(until=10.0)
        policy.handle_node_failure(cluster.node(0), 10.0)
        policy.handle_node_repair(cluster.node(0), 20.0)
        sim.run()
        by_id = {j.job_id: j for j in rms.jobs}
        assert by_id[1].state is JobState.FAILED
        assert by_id[2].state is JobState.COMPLETED

    def test_double_failure_rejected(self):
        sim, cluster, policy, _ = setup("libra")
        policy.handle_node_failure(cluster.node(0), 0.0)
        with pytest.raises(RuntimeError, match="already failed"):
            cluster.node(0).fail(1.0)

    def test_repair_of_online_node_rejected(self):
        sim, cluster, _, _ = setup("libra")
        with pytest.raises(RuntimeError, match="not failed"):
            cluster.node(0).repair(0.0)

    def test_timeshared_survivors_rebalance_after_sibling_removal(self):
        sim, cluster, policy, rms = setup("libra", num_nodes=2)
        # Two jobs on node 0 (best fit packs them), one with a task on
        # node 1 as well.
        rms.submit_all([
            make_job(runtime=40.0, deadline=100.0, numproc=2, submit=0.0, job_id=1),
            make_job(runtime=30.0, deadline=100.0, numproc=1, submit=1.0, job_id=2),
        ])
        sim.run(until=10.0)
        node_with_both = cluster.node(rms.accepted[1].assigned_nodes[0])
        other = cluster.node(1 - node_with_both.node_id)
        policy.handle_node_failure(other, 10.0)
        sim.run()
        by_id = {j.job_id: j for j in rms.jobs}
        # Job 1 (spanning both nodes) failed; job 2 survived on its node.
        assert by_id[1].state is JobState.FAILED
        assert by_id[2].state is JobState.COMPLETED
        assert by_id[2].deadline_met


class TestInjector:
    def run_with_failures(self, policy_name, mtbf, repair, num_jobs=40):
        sim, cluster, policy, rms = setup(policy_name, num_nodes=4)
        jobs = [
            make_job(runtime=50.0, deadline=500.0, submit=float(i * 20), job_id=i + 1)
            for i in range(num_jobs)
        ]
        horizon = num_jobs * 20.0 + 1000.0
        injector = NodeFailureInjector(
            sim, cluster, policy, RngStreams(seed=5),
            mtbf=mtbf, repair_time=repair, horizon=horizon,
        )
        rms.submit_all(jobs)
        injector.start()
        sim.run()
        return rms, injector, cluster

    def test_failures_occur_and_jobs_fail(self):
        rms, injector, _ = self.run_with_failures("libra", mtbf=300.0, repair=100.0)
        assert injector.failures_injected > 0
        assert len(rms.failed) > 0
        # Every job still reaches a terminal state.
        terminal = {JobState.COMPLETED, JobState.REJECTED, JobState.FAILED}
        assert all(j.state in terminal for j in rms.jobs)

    def test_metrics_account_for_failures(self):
        from repro.metrics import compute_metrics

        rms, _, cluster = self.run_with_failures("libra", mtbf=300.0, repair=100.0)
        m = compute_metrics(rms.ledger)
        assert m.failed == len(rms.failed)
        assert m.unfinished == 0
        assert m.accepted == m.completed + m.failed

    def test_rare_failures_leave_most_jobs_fine(self):
        rms, injector, _ = self.run_with_failures("edf", mtbf=1e9, repair=10.0)
        assert injector.failures_injected == 0
        assert len(rms.failed) == 0

    def test_deterministic_given_seed(self):
        a, _, _ = self.run_with_failures("libra", mtbf=300.0, repair=100.0)
        b, _, _ = self.run_with_failures("libra", mtbf=300.0, repair=100.0)
        assert [(j.job_id, j.state.value) for j in a.jobs] == \
               [(j.job_id, j.state.value) for j in b.jobs]

    def test_validation(self):
        sim, cluster, policy, _ = setup("libra")
        with pytest.raises(ValueError):
            NodeFailureInjector(sim, cluster, policy, RngStreams(seed=1),
                                mtbf=0.0, repair_time=1.0)
