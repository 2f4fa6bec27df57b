"""Tests for the RMS front-end."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.job import JobState
from repro.cluster.rms import ResourceManagementSystem
from repro.scheduling.registry import make_policy
from repro.sim.kernel import Simulator
from tests.conftest import make_job, run_jobs


class TestSubmission:
    def test_jobs_arrive_at_submit_times(self):
        jobs = [
            make_job(runtime=1.0, deadline=100.0, submit=5.0, job_id=1),
            make_job(runtime=1.0, deadline=100.0, submit=2.0, job_id=2),
        ]
        rms, sim, _ = run_jobs("libra", jobs, num_nodes=2)
        # Arrival order follows submit time, not list order.
        assert [j.job_id for j in rms.jobs] == [2, 1]

    def test_submit_all_returns_count(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, 2, discipline="time_shared")
        rms = ResourceManagementSystem(sim, cluster, make_policy("libra"))
        assert rms.submit_all([make_job(), make_job()]) == 2

    def test_single_submit_schedules_one_arrival(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, 2, discipline="time_shared")
        rms = ResourceManagementSystem(sim, cluster, make_policy("libra"))
        rms.submit(make_job(runtime=1.0, deadline=100.0, submit=3.0, job_id=1))
        assert sim.pending == 1
        sim.run()
        assert [j.job_id for j in rms.jobs] == [1]

    def test_submit_all_is_a_loop_over_submit(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, 2, discipline="time_shared")
        rms = ResourceManagementSystem(sim, cluster, make_policy("libra"))
        assert rms.submit_all(make_job(job_id=i) for i in (1, 2, 3)) == 3
        assert sim.pending == 3

    def test_out_of_order_submit_rejected_with_clear_error(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, 2, discipline="time_shared")
        rms = ResourceManagementSystem(sim, cluster, make_policy("libra"))
        rms.submit(make_job(runtime=1.0, deadline=100.0, submit=10.0, job_id=1))
        sim.run()  # clock now at t=10
        with pytest.raises(ValueError, match="out of order"):
            rms.submit(make_job(runtime=1.0, deadline=100.0, submit=4.0, job_id=2))

    def test_resubmission_rejected(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, 2, discipline="time_shared")
        rms = ResourceManagementSystem(sim, cluster, make_policy("libra"))
        job = make_job()
        job.mark_submitted()
        with pytest.raises(ValueError, match="cannot submit"):
            rms.submit_all([job])

    def test_policy_bound_once(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, 2, discipline="time_shared")
        policy = make_policy("libra")
        ResourceManagementSystem(sim, cluster, policy)
        with pytest.raises(RuntimeError, match="already has a listener"):
            ResourceManagementSystem(sim, cluster, make_policy("libra"))


class TestBookkeeping:
    def test_accepted_and_completed_tracked(self):
        jobs = [make_job(runtime=10.0, deadline=100.0, submit=0.0)]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=1)
        assert len(rms.accepted) == 1
        assert len(rms.completed) == 1
        assert rms.completed[0].state is JobState.COMPLETED

    def test_rejected_tracked(self):
        # numproc larger than the cluster can never be satisfied.
        jobs = [make_job(numproc=5, deadline=100.0)]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=2)
        assert len(rms.rejected) == 1
        assert rms.rejected[0].state is JobState.REJECTED

    def test_acceptance_ratio(self):
        jobs = [
            make_job(runtime=10.0, deadline=100.0, job_id=1),
            make_job(numproc=9, deadline=100.0, job_id=2),
        ]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=2)
        assert rms.acceptance_ratio == pytest.approx(0.5)

    def test_acceptance_ratio_none_before_jobs(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, 2, discipline="time_shared")
        rms = ResourceManagementSystem(sim, cluster, make_policy("libra"))
        assert rms.acceptance_ratio is None
