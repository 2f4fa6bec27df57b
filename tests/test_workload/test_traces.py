"""Tests for trace subsetting, arrival scaling and the job pipeline on trace columns."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams
from repro.workload.swf import SWFRecord
from repro.workload.traces import (
    TraceColumns,
    WorkloadSpec,
    build_jobs,
    describe_records,
    records_to_jobs,
    scale_arrivals,
    tail_subset,
    usable_records,
)


def rec(n, submit, run=100.0, procs=2, req_time=150.0):
    return SWFRecord(
        job_number=n, submit_time=submit, run_time=run,
        allocated_procs=procs, requested_procs=procs, requested_time=req_time,
    )


def cols(*records):
    return TraceColumns.from_records(records)


class TestTailSubset:
    def test_takes_last_n_by_submit_time(self):
        records = cols(*[rec(i, submit=float(i * 10)) for i in range(1, 11)])
        subset = tail_subset(records, 3)
        assert subset.job_number.tolist() == [8, 9, 10]

    def test_rebased_to_zero(self):
        records = cols(*[rec(i, submit=float(1000 + i)) for i in range(5)])
        subset = tail_subset(records, 3)
        assert subset.submit_time[0] == 0.0
        assert subset.submit_time[1] == 1.0

    def test_unusable_records_dropped_first(self):
        records = cols(rec(1, 0.0), rec(2, 10.0, run=-1), rec(3, 20.0))
        subset = tail_subset(records, 10)
        assert subset.job_number.tolist() == [1, 3]

    def test_n_larger_than_trace(self):
        records = cols(rec(1, 0.0))
        assert len(tail_subset(records, 100)) == 1

    def test_empty(self):
        assert tail_subset(cols(), 5) == cols()

    def test_bad_n(self):
        with pytest.raises(ValueError):
            tail_subset([], 0)


class TestScaleArrivals:
    def test_identity_factor(self):
        records = cols(rec(1, 0.0), rec(2, 100.0))
        assert scale_arrivals(records, 1.0) == records

    def test_compression(self):
        records = cols(rec(1, 0.0), rec(2, 100.0), rec(3, 300.0))
        scaled = scale_arrivals(records, 0.1)
        assert scaled.submit_time.tolist() == [0.0, 10.0, 30.0]

    def test_paper_example(self):
        # "a job with X seconds of inter arrival time from the trace now
        # has a simulated inter arrival time of 0.1 X seconds"
        records = cols(rec(1, 50.0), rec(2, 50.0 + 640.0))
        scaled = scale_arrivals(records, 0.1)
        assert scaled.submit_time[1] - scaled.submit_time[0] == pytest.approx(64.0)

    def test_expansion(self):
        records = cols(rec(1, 0.0), rec(2, 10.0))
        scaled = scale_arrivals(records, 2.0)
        assert scaled.submit_time[1] == pytest.approx(20.0)

    def test_first_submit_preserved(self):
        records = cols(rec(1, 77.0), rec(2, 100.0))
        scaled = scale_arrivals(records, 0.5)
        assert scaled.submit_time[0] == 77.0

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            scale_arrivals(cols(), 0.0)


class TestBuildJobs:
    def _records(self):
        return cols(*[rec(i, submit=float(i * 10), run=100.0, req_time=400.0)
                      for i in range(1, 6)])

    def test_trace_mode_uses_requested_time(self):
        jobs = build_jobs(self._records(), WorkloadSpec(estimate_mode="trace"),
                          RngStreams(seed=1))
        assert all(j.estimated_runtime == 400.0 for j in jobs)

    def test_accurate_mode_uses_runtime(self):
        jobs = build_jobs(self._records(), WorkloadSpec(estimate_mode="accurate"),
                          RngStreams(seed=1))
        assert all(j.estimated_runtime == 100.0 for j in jobs)

    def test_inaccuracy_mode_interpolates(self):
        spec = WorkloadSpec(estimate_mode="inaccuracy", inaccuracy_pct=50.0)
        jobs = build_jobs(self._records(), spec, RngStreams(seed=1))
        assert all(j.estimated_runtime == pytest.approx(250.0) for j in jobs)

    def test_deadlines_independent_of_estimate_mode(self):
        # Panels (a) and (b) of every figure must see identical deadlines.
        a = build_jobs(self._records(), WorkloadSpec(estimate_mode="accurate"),
                       RngStreams(seed=9))
        b = build_jobs(self._records(), WorkloadSpec(estimate_mode="trace"),
                       RngStreams(seed=9))
        assert [j.deadline for j in a] == [j.deadline for j in b]
        assert [j.urgency for j in a] == [j.urgency for j in b]

    def test_deadline_exceeds_runtime(self):
        jobs = build_jobs(self._records(), WorkloadSpec(), RngStreams(seed=2))
        assert all(j.deadline > j.runtime for j in jobs)

    def test_missing_requested_time_falls_back_to_runtime(self):
        records = cols(rec(1, 0.0, req_time=-1))
        jobs = build_jobs(records, WorkloadSpec(estimate_mode="trace"), RngStreams(seed=1))
        assert jobs[0].estimated_runtime == 100.0

    def test_arrival_factor_applied(self):
        spec = WorkloadSpec(arrival_delay_factor=0.5)
        jobs = build_jobs(self._records(), spec, RngStreams(seed=1))
        assert jobs[1].submit_time - jobs[0].submit_time == pytest.approx(5.0)

    def test_job_ids_follow_record_numbers(self):
        jobs = build_jobs(self._records(), WorkloadSpec(), RngStreams(seed=1))
        assert [j.job_id for j in jobs] == [1, 2, 3, 4, 5]

    def test_records_to_jobs_alignment_check(self):
        with pytest.raises(ValueError, match="align"):
            records_to_jobs(cols(rec(1, 0.0)), np.array([1.0, 2.0]), np.array([1.0]), ["x"])


class TestWorkloadSpec:
    @pytest.mark.parametrize("kwargs", [
        {"arrival_delay_factor": 0.0},
        {"estimate_mode": "psychic"},
        {"inaccuracy_pct": 150.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)


class TestDescribe:
    def test_empty(self):
        assert describe_records(cols()) == {"num_jobs": 0}

    def test_fields_present(self):
        stats = describe_records(cols(rec(1, 0.0), rec(2, 3600.0)))
        assert stats["num_jobs"] == 2
        assert stats["mean_interarrival_s"] == pytest.approx(3600.0)
        assert stats["mean_procs"] == 2.0
        assert "estimate_mean_factor" in stats

    def test_usable_records_helper(self):
        records = cols(rec(1, 0.0), rec(2, 1.0, run=-1))
        assert len(usable_records(records)) == 1
