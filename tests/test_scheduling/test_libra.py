"""Tests for the Libra policy (proportional share + best-fit)."""

import pytest

from repro.cluster.job import JobState
from repro.cluster.share import ShareParams
from repro.scheduling.libra import LibraPolicy
from tests.conftest import make_job, run_jobs


class TestAdmission:
    def test_feasible_job_accepted_and_starts_immediately(self):
        jobs = [make_job(runtime=50.0, deadline=100.0)]
        rms, sim, _ = run_jobs("libra", jobs, num_nodes=2)
        job = rms.completed[0]
        assert job.start_time == 0.0            # no queue in Libra
        assert job.finish_time == pytest.approx(100.0)  # share = 0.5
        assert job.deadline_met

    def test_estimate_infeasible_job_rejected(self):
        # Eq. 1 share = 300/100 = 3 > 1 on every node.
        jobs = [make_job(runtime=50.0, estimate=300.0, deadline=100.0)]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=2)
        assert rms.rejected[0].state is JobState.REJECTED

    def test_admission_enforces_eq2_capacity(self):
        # Two jobs each needing 0.6 of the single node: the second must
        # be rejected (0.6 + 0.6 > 1).
        jobs = [
            make_job(runtime=60.0, deadline=100.0, submit=0.0, job_id=1),
            make_job(runtime=60.0, deadline=100.0, submit=1.0, job_id=2),
        ]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=1)
        assert [j.job_id for j in rms.accepted] == [1]
        assert [j.job_id for j in rms.rejected] == [2]

    def test_accepts_when_exactly_full(self):
        jobs = [
            make_job(runtime=60.0, deadline=100.0, submit=0.0, job_id=1),
            make_job(runtime=40.0, deadline=100.0, submit=0.0, job_id=2),
        ]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=1)
        assert len(rms.accepted) == 2
        assert all(j.deadline_met for j in rms.completed)

    def test_capacity_freed_by_completion_reused(self):
        jobs = [
            make_job(runtime=60.0, deadline=100.0, submit=0.0, job_id=1),
            # Arrives after job 1 finished (t=100): node free again.
            make_job(runtime=60.0, deadline=100.0, submit=150.0, job_id=2),
        ]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=1)
        assert len(rms.completed) == 2

    def test_parallel_job_needs_numproc_suitable_nodes(self):
        jobs = [make_job(runtime=50.0, deadline=100.0, numproc=3)]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=2)
        assert len(rms.rejected) == 1

    def test_parallel_job_allocated_one_task_per_node(self):
        jobs = [make_job(runtime=50.0, deadline=100.0, numproc=3)]
        rms, _, cluster = run_jobs("libra", jobs, num_nodes=4)
        job = rms.accepted[0]
        assert len(set(job.assigned_nodes)) == 3

    def test_multinode_job_completes_when_all_tasks_finish(self):
        jobs = [make_job(runtime=50.0, deadline=100.0, numproc=2)]
        rms, sim, _ = run_jobs("libra", jobs, num_nodes=2)
        assert rms.completed[0].finish_time == pytest.approx(100.0)


class TestBestFit:
    def test_best_fit_saturates_loaded_node_first(self):
        # Node 0 carries a small job; the next job should go to node 0
        # again (least residual share after acceptance).
        jobs = [
            make_job(runtime=20.0, deadline=100.0, submit=0.0, job_id=1),
            make_job(runtime=20.0, deadline=100.0, submit=1.0, job_id=2),
        ]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=3)
        a, b = rms.accepted
        assert a.assigned_nodes == b.assigned_nodes

    def test_spillover_when_best_node_full(self):
        jobs = [
            make_job(runtime=90.0, deadline=100.0, submit=0.0, job_id=1),
            make_job(runtime=90.0, deadline=100.0, submit=1.0, job_id=2),
        ]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=2)
        a, b = rms.accepted
        assert a.assigned_nodes != b.assigned_nodes
        assert len(rms.completed) == 2


class TestEstimateBlindness:
    def test_overrunning_job_invisible_to_admission(self):
        """The core Libra weakness the paper attacks: a job past its
        estimate contributes zero Eq. 1 share, so Libra over-admits
        onto its node and the newcomers get squeezed by the floor."""
        params = ShareParams(overrun_floor_share=0.25)
        jobs = [
            # share 10/20=0.5; estimate exhausted at t=20, actual work
            # 1000 continues at the floor for a long time.
            make_job(runtime=1000.0, estimate=10.0, deadline=20.0, submit=0.0, job_id=1),
            # Arrives at t=30 needing 0.9: Libra sees the node as empty.
            make_job(runtime=90.0, estimate=90.0, deadline=100.0, submit=30.0, job_id=2),
        ]
        rms, _, _ = run_jobs("libra", jobs, num_nodes=1, share_params=params)
        assert len(rms.accepted) == 2
        victim = next(j for j in rms.completed if j.job_id == 2)
        # 0.9 + 0.25 floor over-commits the node -> job 2 runs slower
        # than its Eq. 1 share and misses its deadline.
        assert not victim.deadline_met


class TestValidation:
    def test_requires_time_shared_nodes(self):
        from repro.cluster.cluster import Cluster
        from repro.cluster.rms import ResourceManagementSystem
        from repro.sim.kernel import Simulator

        sim = Simulator()
        cluster = Cluster.homogeneous(sim, 1, discipline="space_shared")
        with pytest.raises(TypeError, match="requires time-shared"):
            ResourceManagementSystem(sim, cluster, LibraPolicy())
