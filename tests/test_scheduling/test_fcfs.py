"""Tests for the FCFS baseline."""


from tests.conftest import make_job, run_jobs


class TestOrdering:
    def test_strict_arrival_order(self):
        jobs = [
            make_job(runtime=10.0, deadline=1000.0, submit=0.0, job_id=1),
            # Much more urgent but arrives later: FCFS ignores deadlines.
            make_job(runtime=10.0, deadline=50.0, submit=1.0, job_id=2),
            make_job(runtime=10.0, deadline=2000.0, submit=2.0, job_id=3),
        ]
        rms, _, _ = run_jobs("fcfs", jobs, num_nodes=1)
        starts = {j.job_id: j.start_time for j in rms.jobs if j.start_time is not None}
        assert starts[1] < starts[2]
        assert 3 not in starts or starts[2] < starts[3]

    def test_edf_beats_fcfs_on_urgent_latecomer(self):
        def mk():
            return [
                make_job(runtime=50.0, deadline=1000.0, submit=0.0, job_id=1),
                make_job(runtime=50.0, deadline=1000.0, submit=1.0, job_id=2),
                make_job(runtime=10.0, deadline=70.0, submit=2.0, job_id=3),
            ]

        fcfs_rms, _, _ = run_jobs("fcfs", mk(), num_nodes=1)
        edf_rms, _, _ = run_jobs("edf", mk(), num_nodes=1)
        fcfs_met = {j.job_id for j in fcfs_rms.completed if j.deadline_met}
        edf_met = {j.job_id for j in edf_rms.completed if j.deadline_met}
        assert 3 in edf_met
        assert 3 not in fcfs_met


class TestAdmission:
    def test_dispatch_check_applies(self):
        jobs = [make_job(runtime=10.0, estimate=500.0, deadline=100.0)]
        rms, _, _ = run_jobs("fcfs", jobs)
        assert len(rms.rejected) == 1

    def test_queued_jobs_property(self):
        jobs = [
            make_job(runtime=100.0, deadline=10000.0, submit=0.0, job_id=1),
            make_job(runtime=10.0, deadline=10000.0, submit=1.0, job_id=2),
        ]
        rms, sim, _ = run_jobs("fcfs", jobs, num_nodes=1)
        # After the run everything drained.
        assert len(rms.policy.queue) == 0
        assert len(rms.completed) == 2
