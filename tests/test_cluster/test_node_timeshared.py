"""Tests for the proportional-share node — Libra's execution discipline.

All nodes here use ``rating=1.0`` so work units equal seconds and the
Eq. 1 arithmetic can be checked by hand.
"""

import pytest

from repro.cluster.node import TimeSharedNode
from repro.cluster.share import ShareParams
from tests.conftest import make_job


def make_node(sim, rating=1.0, listener=None, **share_kwargs):
    params = ShareParams(**share_kwargs) if share_kwargs else ShareParams()
    return TimeSharedNode(0, rating, sim, listener=listener, share_params=params)


class TestSingleTask:
    def test_accurate_job_finishes_exactly_at_deadline(self, sim):
        done = []
        node = make_node(sim, listener=lambda n, t, now, count: done.append(now))
        job = make_job(runtime=50.0, estimate=50.0, deadline=100.0, submit=0.0)
        node.add_task(job, work=50.0, est_work=50.0, now=0.0)
        # Eq. 1: share = 50/100 = 0.5 -> actual 50 s of work at rate 0.5
        task = node.tasks[job.job_id]
        assert task.rate == pytest.approx(0.5)
        sim.run()
        assert done == [pytest.approx(100.0)]
        assert not node.tasks

    def test_overestimated_job_finishes_early(self, sim):
        done = []
        node = make_node(sim, listener=lambda n, t, now, count: done.append(now))
        job = make_job(runtime=20.0, estimate=50.0, deadline=100.0)
        node.add_task(job, work=20.0, est_work=50.0, now=0.0)
        sim.run()
        # rate 0.5 from the inflated estimate; actual work 20 -> t = 40.
        assert done == [pytest.approx(40.0)]

    def test_share_clamped_for_estimate_infeasible_job(self, sim):
        node = make_node(sim)
        job = make_job(runtime=50.0, estimate=300.0, deadline=100.0)
        node.add_task(job, work=50.0, est_work=300.0, now=0.0)
        assert node.tasks[job.job_id].rate == pytest.approx(1.0)
        sim.run()
        assert job.job_id not in node.tasks  # finished at t = 50 (full speed)
        assert sim.now == pytest.approx(50.0)

    def test_underestimated_job_enters_overrun_floor(self, sim):
        done = []
        node = make_node(
            sim, listener=lambda n, t, now, count: done.append(now), overrun_floor_share=0.1
        )
        job = make_job(runtime=80.0, estimate=40.0, deadline=100.0)
        node.add_task(job, work=80.0, est_work=40.0, now=0.0)
        sim.run()
        # Phase 1: share 40/100 = 0.4 until the estimate runs out at
        # t = 100 (consuming 40 of 80 work).  Phase 2: floor share 0.1
        # for the remaining 40 work -> 400 s more.
        assert done == [pytest.approx(500.0)]


class TestMultiTask:
    def test_two_fitting_jobs_meet_their_deadlines(self, sim):
        done = {}
        node = make_node(sim, listener=lambda n, t, now, count: done.__setitem__(t.job.job_id, now))
        a = make_job(runtime=30.0, deadline=100.0, job_id=1)
        b = make_job(runtime=40.0, deadline=200.0, job_id=2)
        node.add_task(a, work=30.0, est_work=30.0, now=0.0)
        node.add_task(b, work=40.0, est_work=40.0, now=0.0)
        # shares: 0.3 and 0.2; sum 0.5 <= 1, both run exactly on time.
        sim.run()
        assert done[1] == pytest.approx(100.0)
        assert done[2] == pytest.approx(200.0)

    def test_exact_allocation_leaves_spare_idle(self, sim):
        node = make_node(sim)
        job = make_job(runtime=50.0, deadline=100.0)
        node.add_task(job, work=50.0, est_work=50.0, now=0.0)
        sim.run()
        # Finishes at the deadline, not earlier, despite the idle half.
        assert sim.now == pytest.approx(100.0)

    def test_redistribute_spare_finishes_early(self, sim):
        node = make_node(sim, redistribute_spare=True)
        job = make_job(runtime=50.0, deadline=100.0)
        node.add_task(job, work=50.0, est_work=50.0, now=0.0)
        sim.run()
        assert sim.now == pytest.approx(50.0)  # whole node -> full speed

    def test_overcommit_rescales_rates(self, sim):
        node = make_node(sim)
        a = make_job(runtime=80.0, deadline=100.0, job_id=1)
        b = make_job(runtime=60.0, deadline=100.0, job_id=2)
        node.add_task(a, work=80.0, est_work=80.0, now=0.0)
        node.add_task(b, work=60.0, est_work=60.0, now=0.0)
        # Nominal 0.8 + 0.6 = 1.4 -> scaled by 1/1.4.
        ta, tb = node.tasks[1], node.tasks[2]
        assert ta.rate + tb.rate == pytest.approx(1.0)
        assert ta.rate / tb.rate == pytest.approx(80.0 / 60.0)

    def test_arrival_mid_flight_preserves_earlier_job_share(self, sim):
        done = {}
        node = make_node(sim, listener=lambda n, t, now, count: done.__setitem__(t.job.job_id, now))
        a = make_job(runtime=50.0, deadline=100.0, job_id=1)
        node.add_task(a, work=50.0, est_work=50.0, now=0.0)
        sim.run(until=40.0)
        b = make_job(runtime=10.0, deadline=50.0, submit=40.0, job_id=2)
        node.add_task(b, work=10.0, est_work=10.0, now=40.0)
        sim.run()
        # a: share 0.5 throughout (recomputed identically); b: 10/50=0.2.
        assert done[1] == pytest.approx(100.0)
        assert done[2] == pytest.approx(90.0)

    def test_work_ledgers_advance_on_sync(self, sim):
        node = make_node(sim)
        job = make_job(runtime=50.0, deadline=100.0)
        node.add_task(job, work=50.0, est_work=50.0, now=0.0)
        sim.run(until=20.0)
        node.sync(20.0)
        task = node.tasks[job.job_id]
        assert task.remaining_work == pytest.approx(40.0)  # 20 s at rate 0.5
        assert task.remaining_est_work == pytest.approx(40.0)

    def test_sync_backwards_raises(self, sim):
        node = make_node(sim)
        node.sync(10.0)
        with pytest.raises(ValueError):
            node.sync(5.0)

    def test_duplicate_job_rejected(self, sim):
        node = make_node(sim)
        job = make_job()
        node.add_task(job, work=10.0, est_work=10.0, now=0.0)
        with pytest.raises(RuntimeError, match="already has a task"):
            node.add_task(job, work=10.0, est_work=10.0, now=0.0)

    def test_busy_time_counts_executed_work_only(self, sim):
        node = make_node(sim)
        job = make_job(runtime=50.0, deadline=100.0)
        node.add_task(job, work=50.0, est_work=50.0, now=0.0)
        sim.run()
        assert node.busy_time == pytest.approx(50.0)
        assert node.utilisation(100.0) == pytest.approx(0.5)


class TestAdmissionViews:
    def test_total_admission_share_eq2(self, sim):
        node = make_node(sim)
        node.add_task(make_job(runtime=30.0, deadline=100.0, job_id=1),
                      work=30.0, est_work=30.0, now=0.0)
        node.add_task(make_job(runtime=20.0, deadline=50.0, job_id=2),
                      work=20.0, est_work=20.0, now=0.0)
        assert node.total_admission_share(0.0) == pytest.approx(0.3 + 0.4)

    def test_total_admission_share_with_extra(self, sim):
        node = make_node(sim)
        total = node.total_admission_share(0.0, extra=[(25.0, 100.0)])
        assert total == pytest.approx(0.25)

    def test_overrun_task_invisible_in_zero_mode(self, sim):
        node = make_node(sim)
        job = make_job(runtime=80.0, estimate=40.0, deadline=100.0)
        node.add_task(job, work=80.0, est_work=40.0, now=0.0)
        sim.run(until=150.0)
        node.sync(150.0)  # estimate exhausted at t=100 -> overrun
        assert node.tasks[job.job_id].overrun
        assert node.total_admission_share(150.0) == 0.0


class TestPredictedDelays:
    def test_empty_node_with_fitting_job(self, sim):
        node = make_node(sim)
        job = make_job(runtime=50.0, deadline=100.0)
        delays = node.predicted_delays(0.0, extra=[(job, 50.0)])
        assert delays == [(job, 0.0)]

    def test_empty_node_with_infeasible_estimate(self, sim):
        node = make_node(sim)
        job = make_job(runtime=50.0, estimate=300.0, deadline=100.0)
        delays = node.predicted_delays(0.0, extra=[(job, 300.0)])
        # At full speed the estimate claims 300 s against a 100 s deadline.
        assert delays[0][1] == pytest.approx(200.0)

    def test_fitting_node_all_zero_fast_path(self, sim):
        node = make_node(sim)
        for i, (rt, dl) in enumerate([(30.0, 100.0), (20.0, 50.0)], start=1):
            node.add_task(make_job(runtime=rt, deadline=dl, job_id=i),
                          work=rt, est_work=rt, now=0.0)
        new = make_job(runtime=10.0, deadline=100.0)
        delays = node.predicted_delays(0.0, extra=[(new, 10.0)])
        assert all(d == 0.0 for _, d in delays)
        assert len(delays) == 3

    def test_overcommitted_node_staggers_delays(self, sim):
        """Regression: proportional rescale alone makes every Eq. 4 value
        equal (Σ for all jobs), hiding over-commitment from σ.  The
        forward projection must stagger them."""
        node = make_node(sim)
        a = make_job(runtime=80.0, deadline=100.0, job_id=1)
        b = make_job(runtime=60.0, deadline=120.0, job_id=2)
        node.add_task(a, work=80.0, est_work=80.0, now=0.0)
        node.add_task(b, work=60.0, est_work=60.0, now=0.0)
        delays = dict((j.job_id, d) for j, d in node.predicted_delays(0.0))
        # Σ = 0.8 + 0.5 = 1.3 > 1: at least one job predicted late,
        # and the two relative delays must NOT be the degenerate equal pair.
        assert max(delays.values()) > 0.0
        dd = {jid: (d + rem) / rem for (jid, d), rem in zip(delays.items(), [100.0, 120.0])}
        assert dd[1] != pytest.approx(dd[2])

    def test_projection_matches_actual_execution_when_estimates_accurate(self, sim):
        node = make_node(sim)
        a = make_job(runtime=80.0, deadline=100.0, job_id=1)
        b = make_job(runtime=60.0, deadline=120.0, job_id=2)
        predicted = {
            j.job_id: d
            for j, d in make_node(sim).predicted_delays(0.0, extra=[(a, 80.0), (b, 60.0)])
        }
        done = {}
        node.listener = lambda n, t, now, count: done.__setitem__(t.job.job_id, now)
        node.add_task(a, work=80.0, est_work=80.0, now=0.0)
        node.add_task(b, work=60.0, est_work=60.0, now=0.0)
        sim.run()
        for jid, job in ((1, a), (2, b)):
            actual_delay = max(0.0, done[jid] - job.absolute_deadline)
            assert predicted[jid] == pytest.approx(actual_delay, abs=1e-6)

    def test_overrun_task_contributes_accrued_delay(self, sim):
        node = make_node(sim)
        job = make_job(runtime=80.0, estimate=40.0, deadline=100.0)
        node.add_task(job, work=80.0, est_work=40.0, now=0.0)
        sim.run(until=150.0)
        node.sync(150.0)
        delays = dict((j.job_id, d) for j, d in node.predicted_delays(150.0))
        assert delays[job.job_id] == pytest.approx(50.0)  # 150 - 100

    def test_overrun_floor_slows_new_job_in_projection(self, sim):
        node = make_node(sim, overrun_floor_share=0.5)
        # share 10/20 = 0.5 -> estimate exhausted at t = 20, then the
        # 0.5 floor; still far from its 1000 s of actual work at t = 100.
        zombie = make_job(runtime=1000.0, estimate=10.0, deadline=20.0, job_id=1)
        node.add_task(zombie, work=1000.0, est_work=10.0, now=0.0)
        sim.run(until=100.0)
        node.sync(100.0)
        assert node.tasks[1].overrun
        # New job would need 0.8 of the node; with the 0.5 floor occupant
        # the sum rescales and the new job is predicted late.
        new = make_job(runtime=80.0, deadline=100.0, submit=100.0, job_id=2)
        delays = dict((j.job_id, d) for j, d in node.predicted_delays(100.0, extra=[(new, 80.0)]))
        assert delays[2] > 0.0

    def test_expired_deadline_running_job(self, sim):
        node = make_node(sim)
        job = make_job(runtime=500.0, estimate=500.0, deadline=100.0)
        node.add_task(job, work=500.0, est_work=500.0, now=0.0)
        sim.run(until=200.0)
        node.sync(200.0)
        delays = dict((j.job_id, d) for j, d in node.predicted_delays(200.0))
        assert delays[job.job_id] > 0.0

    def test_no_entries(self, sim):
        assert make_node(sim).predicted_delays(0.0) == []
