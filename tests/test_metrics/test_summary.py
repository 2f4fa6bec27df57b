"""Tests for the paper's metrics."""

import pytest

from repro.cluster.job import UrgencyClass
from repro.cluster.node import start_job_tasks
from repro.metrics.summary import compute_metrics
from tests.conftest import ledger_of, make_job


def completed_job(runtime=10.0, deadline=100.0, finish=10.0, submit=0.0, **kw):
    job = make_job(runtime=runtime, deadline=deadline, submit=submit, **kw)
    job.mark_submitted()
    job.mark_running(submit, [0])
    job.mark_completed(finish)
    return job


def rejected_job(**kw):
    job = make_job(**kw)
    job.mark_submitted()
    job.mark_rejected("test")
    return job


class TestHeadlineMetrics:
    def test_pct_fulfilled_counts_all_submitted(self):
        jobs = [
            completed_job(finish=10.0),                 # on time
            completed_job(finish=500.0),                # late
            rejected_job(),                             # rejected
        ]
        m = compute_metrics(ledger_of(jobs))
        assert m.total_submitted == 3
        assert m.deadlines_fulfilled == 1
        assert m.pct_deadlines_fulfilled == pytest.approx(100.0 / 3.0)

    def test_avg_slowdown_over_fulfilled_only(self):
        jobs = [
            completed_job(runtime=10.0, finish=20.0),   # slowdown 2, on time
            completed_job(runtime=10.0, finish=40.0),   # slowdown 4, on time
            completed_job(runtime=10.0, finish=500.0),  # late: excluded
        ]
        m = compute_metrics(ledger_of(jobs))
        assert m.avg_slowdown == pytest.approx(3.0)

    def test_avg_slowdown_zero_when_nothing_fulfilled(self):
        m = compute_metrics(ledger_of([rejected_job()]))
        assert m.avg_slowdown == 0.0

    def test_late_job_stats(self):
        jobs = [completed_job(deadline=100.0, finish=150.0)]
        m = compute_metrics(ledger_of(jobs))
        assert m.completed_late == 1
        assert m.avg_delay_of_late_jobs == pytest.approx(50.0)

    def test_unfinished_counts_accepted_not_completed(self):
        running = make_job()
        running.mark_submitted()
        running.mark_running(0.0, [0])
        m = compute_metrics(ledger_of([running]))
        assert m.accepted == 1
        assert m.completed == 0
        assert m.unfinished == 1

    def test_acceptance_pct(self):
        jobs = [completed_job(), rejected_job(), rejected_job(), completed_job()]
        m = compute_metrics(ledger_of(jobs))
        assert m.acceptance_pct == pytest.approx(50.0)

    def test_empty_input(self):
        m = compute_metrics(ledger_of([]))
        assert m.total_submitted == 0
        assert m.pct_deadlines_fulfilled == 0.0

    def test_created_jobs_excluded(self):
        m = compute_metrics(ledger_of([make_job()]))
        assert m.total_submitted == 0


class TestClassBreakdown:
    def test_per_class_counts(self):
        jobs = [
            completed_job(urgency=UrgencyClass.HIGH, finish=10.0),
            completed_job(urgency=UrgencyClass.HIGH, finish=900.0),
            completed_job(urgency=UrgencyClass.LOW, finish=10.0),
        ]
        m = compute_metrics(ledger_of(jobs))
        assert m.high_urgency.submitted == 2
        assert m.high_urgency.fulfilled == 1
        assert m.high_urgency.pct_fulfilled == pytest.approx(50.0)
        assert m.low_urgency.pct_fulfilled == pytest.approx(100.0)

    def test_empty_class_pct_zero(self):
        m = compute_metrics(ledger_of([completed_job(urgency=UrgencyClass.LOW)]))
        assert m.high_urgency.pct_fulfilled == 0.0


class TestAsDict:
    def test_flat_dict_keys(self):
        m = compute_metrics(ledger_of([completed_job()]))
        d = m.as_dict()
        for key in ("pct_deadlines_fulfilled", "avg_slowdown", "acceptance_pct",
                    "utilisation", "high_pct_fulfilled"):
            assert key in d

    def test_utilisation_included_with_cluster(self, sim):
        from repro.cluster.cluster import Cluster

        cluster = Cluster.homogeneous(sim, 2, rating=1.0, discipline="space_shared")
        start_job_tasks(make_job(), [cluster.node(0)], 50.0, 0.0)
        sim.run()
        m = compute_metrics(ledger_of([]), cluster=cluster, horizon=100.0)
        assert m.utilisation == pytest.approx(0.25)
