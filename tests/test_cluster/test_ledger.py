"""The RMS ledger: finished jobs as packed rows, read back field for field."""

import random

import pytest

from repro.cluster.job import JobState
from repro.cluster.ledger import BATCH, INT64, JobLedger
from repro.service.engine import AdmissionEngine, DuplicateJob, EngineConfig
from tests.conftest import job_fields, make_job


def finished(job_id, runtime=10.0, submit=0.0):
    job = make_job(runtime=runtime, deadline=100.0, submit=submit, job_id=job_id)
    job.mark_submitted()
    job.mark_running(submit, [3, 1, 2])
    job.mark_completed(submit + runtime)
    return job


class TestRows:
    def test_a_finished_job_reads_back_equal_in_every_field(self):
        ledger = JobLedger()
        job = finished(7)
        job.numproc = 3
        ledger.arrive(job)
        ledger.accept(job)
        ledger.retire(job)
        (back,) = ledger.jobs()
        assert back is not job and job_fields(back) == job_fields(job)
        assert back.assigned_nodes == [3, 1, 2]

    def test_a_node_count_other_than_numproc_is_kept(self):
        ledger = JobLedger()
        job = finished(7)  # numproc 1, three nodes, never accepted
        ledger.arrive(job)
        ledger.retire(job)
        assert list(ledger.jobs())[0].assigned_nodes == [3, 1, 2]

    def test_finished_jobs_are_packed_a_batch_at_a_time(self):
        ledger = JobLedger()
        jobs = [finished(i + 1) for i in range(BATCH + 1)]
        for job in jobs:
            ledger.arrive(job)
            ledger.retire(job)
        # A single-job reader answers the unpacked one from its object.
        assert ledger.job(BATCH) is jobs[BATCH]
        assert ledger.job(0) is not jobs[0]
        assert ledger.state_counts()[JobState.COMPLETED.code] == BATCH + 1
        assert ledger.job(BATCH) is not jobs[BATCH]


class TestIds:
    def test_ids_in_any_order_are_found(self):
        ledger = JobLedger()
        ids = (5, 9, 2, 12, 9_000, 3)
        for job_id in ids:
            ledger.arrive(make_job(job_id=job_id))
        assert [ledger.index.get(i) for i in ids] == [0, 1, 2, 3, 4, 5]
        assert [ledger.job_id(row) for row in range(6)] == list(ids)
        assert ledger.index.get(4) is None and ledger.index.get(10_000) is None

    def test_an_id_read_back_is_the_submitted_object(self):
        ledger = JobLedger()
        job = finished(123_456_789)
        ledger.arrive(job)
        ledger.retire(job)
        assert ledger.state_counts()[JobState.COMPLETED.code] == 1
        assert ledger.job_id(0) is job.job_id

    def test_a_repeated_id_is_refused(self):
        ledger = JobLedger()
        ledger.arrive(make_job(job_id=4))
        with pytest.raises(ValueError, match="already arrived"):
            ledger.arrive(make_job(job_id=4))
        assert ledger.rows == 1

    def test_the_engine_refuses_a_duplicate_below_the_maximum(self):
        engine = AdmissionEngine(EngineConfig(policy="edf", num_nodes=4, rating=1.0))
        for job_id in (10, 4, 20):
            engine.submit(make_job(runtime=1.0, deadline=100.0, job_id=job_id))
        with pytest.raises(DuplicateJob):
            engine.submit(make_job(runtime=1.0, deadline=100.0, job_id=4))
        assert engine.query(4).job_id == 4

    def test_ids_beyond_int64_are_kept(self):
        ledger = JobLedger()
        jobs = [finished(job_id) for job_id in (INT64, 1, INT64 * 4 + 1)]
        for job in jobs:
            ledger.arrive(job)
            ledger.retire(job)
        assert [job.job_id for job in ledger.jobs()] == [INT64, 1, INT64 * 4 + 1]
        assert ledger.index.get(INT64 * 4 + 1) == 2

    def test_a_numproc_beyond_int64_is_kept(self):
        # A row's numproc field is a signed int64: a larger count is kept
        # beside the row, and a job that never ran reads back equal.
        ledger = JobLedger()
        jobs = [make_job(numproc=numproc, job_id=k + 1)
                for k, numproc in enumerate((INT64, 2, INT64 * 3 + 5))]
        for job in jobs:
            job.mark_submitted()
            job.mark_rejected("too wide")
            ledger.arrive(job)
            ledger.retire(job)
        assert [job_fields(back) for back in ledger.jobs()] == list(map(job_fields, jobs))
        assert ledger.job(2).numproc == INT64 * 3 + 5


class TestShuffledIds:
    """Ids a client picks need not rise with submit time: every answer
    is the same whatever order the ids arrive in."""

    @staticmethod
    def answers(ids):
        engine = AdmissionEngine(EngineConfig(policy="edf", num_nodes=8, rating=1.0))
        for k, job_id in enumerate(ids):
            engine.submit(make_job(runtime=5.0 + k % 7, deadline=30.0 + k % 11,
                                   numproc=1 + k % 3, submit=float(k), job_id=job_id))
        engine.drain()
        by_id = {
            job_id: (job_fields(engine.query(job_id)), engine.decision_for(job_id))
            for job_id in ids
        }
        return [by_id[job_id] for job_id in sorted(ids)], engine.metrics()

    def test_shuffled_ids_answer_as_rising_ones(self):
        n = 3 * BATCH + 17
        rising = list(range(1, n + 1))
        shuffled = rising[:]
        random.Random(7).shuffle(shuffled)
        # The same jobs in the same submit order; only the ids differ.
        (got, got_metrics), (want, want_metrics) = (
            self.answers(shuffled), self.answers(rising),
        )
        renamed = dict(zip(rising, shuffled))
        want_by_new_id = {}
        for (fields, decision), old in zip(want, rising):
            new = renamed[old]
            fields = (new,) + fields[1:]
            decision.job_id = new
            want_by_new_id[new] = (fields, decision)
        assert got == [want_by_new_id[job_id] for job_id in sorted(shuffled)]
        assert got_metrics == want_metrics
