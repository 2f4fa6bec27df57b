"""Tests for the EDF policy (space-shared, relaxed admission)."""

import pytest

from repro.cluster.job import JobState
from tests.conftest import make_job, run_jobs


class TestBasicExecution:
    def test_single_job_runs_immediately(self):
        jobs = [make_job(runtime=10.0, deadline=100.0)]
        rms, sim, _ = run_jobs("edf", jobs, num_nodes=2)
        job = rms.completed[0]
        assert job.start_time == 0.0
        assert job.finish_time == pytest.approx(10.0)
        assert job.deadline_met

    def test_space_shared_full_speed(self):
        # Unlike Libra, EDF runs the job at full node speed: a 10 s job
        # with a 100 s deadline finishes at t=10, not t=100.
        jobs = [make_job(runtime=10.0, deadline=100.0)]
        rms, sim, _ = run_jobs("edf", jobs)
        assert rms.completed[0].slowdown == pytest.approx(1.0)

    def test_parallel_job_takes_numproc_nodes(self):
        jobs = [make_job(runtime=10.0, deadline=100.0, numproc=3)]
        rms, _, cluster = run_jobs("edf", jobs, num_nodes=4)
        assert len(rms.completed) == 1
        assert len(rms.completed[0].assigned_nodes) == 3

    def test_jobs_queue_when_nodes_busy(self):
        jobs = [
            make_job(runtime=10.0, deadline=100.0, numproc=2, submit=0.0, job_id=1),
            make_job(runtime=5.0, deadline=100.0, numproc=2, submit=1.0, job_id=2),
        ]
        rms, _, _ = run_jobs("edf", jobs, num_nodes=2)
        by_id = {j.job_id: j for j in rms.completed}
        assert by_id[2].start_time == pytest.approx(10.0)
        assert by_id[2].finish_time == pytest.approx(15.0)


class TestDeadlineOrdering:
    def test_earliest_deadline_dispatched_first(self):
        jobs = [
            make_job(runtime=10.0, deadline=1000.0, numproc=2, submit=0.0, job_id=1),
            make_job(runtime=10.0, deadline=500.0, numproc=2, submit=1.0, job_id=2),
            make_job(runtime=10.0, deadline=200.0, numproc=2, submit=2.0, job_id=3),
        ]
        rms, _, _ = run_jobs("edf", jobs, num_nodes=2)
        by_id = {j.job_id: j for j in rms.completed}
        # Job 1 runs first (it was alone); then 3 (earlier absolute
        # deadline than 2), then 2.
        assert by_id[3].start_time < by_id[2].start_time

    def test_reselection_during_wait(self):
        # While job 2 waits for the busy node, the later-arriving but
        # more urgent job 3 takes its place — the paper's "better
        # selection choice".
        jobs = [
            make_job(runtime=50.0, deadline=1000.0, numproc=1, submit=0.0, job_id=1),
            make_job(runtime=10.0, deadline=900.0, numproc=1, submit=1.0, job_id=2),
            make_job(runtime=10.0, deadline=100.0, numproc=1, submit=2.0, job_id=3),
        ]
        rms, _, _ = run_jobs("edf", jobs, num_nodes=1)
        by_id = {j.job_id: j for j in rms.completed}
        assert by_id[3].start_time == pytest.approx(50.0)
        assert by_id[2].start_time == pytest.approx(60.0)

    def test_tie_broken_by_submit_time(self):
        jobs = [
            make_job(runtime=10.0, deadline=99.0, numproc=1, submit=1.0, job_id=2),
            make_job(runtime=10.0, deadline=100.0, numproc=1, submit=0.0, job_id=1),
        ]
        # Both absolute deadlines equal 100.
        rms, _, _ = run_jobs("edf", jobs, num_nodes=1)
        by_id = {j.job_id: j for j in rms.completed}
        assert by_id[1].start_time < by_id[2].start_time


class TestAdmissionControl:
    def test_infeasible_estimate_rejected_at_dispatch(self):
        jobs = [make_job(runtime=10.0, estimate=200.0, deadline=100.0)]
        rms, _, _ = run_jobs("edf", jobs)
        assert len(rms.rejected) == 1
        assert rms.rejected[0].state is JobState.REJECTED

    def test_feasible_but_overestimated_accepted(self):
        jobs = [make_job(runtime=10.0, estimate=90.0, deadline=100.0)]
        rms, _, _ = run_jobs("edf", jobs)
        assert len(rms.completed) == 1

    def test_job_rejected_when_wait_made_it_infeasible(self):
        jobs = [
            make_job(runtime=60.0, deadline=1000.0, numproc=1, submit=0.0, job_id=1),
            make_job(runtime=50.0, deadline=55.0, numproc=1, submit=1.0, job_id=2),
        ]
        rms, _, _ = run_jobs("edf", jobs, num_nodes=1)
        # Job 2 must wait until t=60; 60 + 50 > 1 + 55 -> rejected.
        assert [j.job_id for j in rms.rejected] == [2]

    def test_doomed_wide_job_does_not_block_queue(self):
        jobs = [
            make_job(runtime=100.0, deadline=1000.0, numproc=1, submit=0.0, job_id=1),
            # Needs both nodes and is already infeasible once queued.
            make_job(runtime=100.0, estimate=100.0, deadline=50.0, numproc=2,
                     submit=1.0, job_id=2),
            make_job(runtime=10.0, deadline=500.0, numproc=1, submit=2.0, job_id=3),
        ]
        rms, _, _ = run_jobs("edf", jobs, num_nodes=2)
        by_id = {j.job_id: j for j in rms.jobs}
        assert by_id[2].state is JobState.REJECTED
        # Job 3 starts on the free node at its arrival, not after job 1.
        assert by_id[3].start_time == pytest.approx(2.0)

    def test_non_preemptive_head_of_line_blocking(self):
        # EDF does NOT backfill: an urgent wide job blocks a later
        # narrow job even though a node is idle.
        jobs = [
            make_job(runtime=50.0, deadline=1000.0, numproc=1, submit=0.0, job_id=1),
            make_job(runtime=10.0, deadline=200.0, numproc=2, submit=1.0, job_id=2),
            make_job(runtime=1.0, deadline=2000.0, numproc=1, submit=2.0, job_id=3),
        ]
        rms, _, _ = run_jobs("edf", jobs, num_nodes=2)
        by_id = {j.job_id: j for j in rms.completed}
        # Job 2 (deadline 201) is selected over job 3 (deadline 2002)
        # and waits for both nodes; job 3 waits behind it.
        assert by_id[2].start_time == pytest.approx(50.0)
        assert by_id[3].start_time >= by_id[2].start_time


class TestMetricsIntegration:
    def test_queue_drains_completely_under_light_load(self):
        jobs = [
            make_job(runtime=5.0, deadline=500.0, submit=float(i * 20), job_id=i + 1)
            for i in range(10)
        ]
        rms, _, _ = run_jobs("edf", jobs, num_nodes=2)
        assert len(rms.completed) == 10
        assert all(j.deadline_met for j in rms.completed)
