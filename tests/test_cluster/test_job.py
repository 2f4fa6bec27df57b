"""Tests for the Job model and its lifecycle state machine."""

import math

import pytest

from repro.cluster.job import DELAY_TOLERANCE, Job, JobState, UrgencyClass
from tests.conftest import make_job


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("runtime", 0.0),
        ("runtime", -1.0),
        ("estimated_runtime", 0.0),
        ("numproc", 0),
        ("deadline", 0.0),
        ("deadline", -5.0),
        ("submit_time", -1.0),
        # NaN fails every comparison, so a bare `x <= 0` check lets it in.
        ("runtime", math.nan),
        ("runtime", math.inf),
        ("estimated_runtime", math.nan),
        ("estimated_runtime", math.inf),
        ("deadline", math.nan),
        ("deadline", math.inf),
        ("submit_time", math.nan),
        ("submit_time", math.inf),
    ])
    def test_invalid_arguments_rejected(self, field, value):
        kwargs = dict(runtime=10.0, estimated_runtime=10.0, numproc=1,
                      deadline=20.0, submit_time=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            Job(**kwargs)

    def test_auto_ids_are_unique(self):
        a, b = make_job(), make_job()
        assert a.job_id != b.job_id

    def test_explicit_id_respected(self):
        assert make_job(job_id=777).job_id == 777


class TestStateMachine:
    def test_happy_path(self):
        job = make_job(submit=10.0)
        assert job.state is JobState.CREATED
        job.mark_submitted()
        job.mark_queued()
        job.mark_running(15.0, [0, 1])
        assert job.start_time == 15.0
        assert job.assigned_nodes == [0, 1]
        job.mark_completed(50.0)
        assert job.finish_time == 50.0
        assert job.completed

    def test_submitted_straight_to_running(self):
        job = make_job()
        job.mark_submitted()
        job.mark_running(0.0, [0])
        assert job.state is JobState.RUNNING

    def test_rejection_from_submitted(self):
        job = make_job()
        job.mark_submitted()
        job.mark_rejected("no capacity")
        assert job.state is JobState.REJECTED
        assert job.reject_reason == "no capacity"
        assert not job.accepted

    def test_rejection_from_queued(self):
        job = make_job()
        job.mark_submitted()
        job.mark_queued()
        job.mark_rejected()
        assert job.state is JobState.REJECTED
        assert job.reject_reason is None

    @pytest.mark.parametrize("bad", [
        JobState.CREATED,
        JobState.COMPLETED,
        JobState.REJECTED,
    ])
    def test_illegal_transition_from_created(self, bad):
        job = make_job()
        with pytest.raises(ValueError, match="illegal transition"):
            job.transition(bad)

    def test_completed_is_terminal(self):
        job = make_job()
        job.mark_submitted()
        job.mark_running(0.0, [0])
        job.mark_completed(1.0)
        with pytest.raises(ValueError):
            job.mark_rejected()

    def test_cannot_complete_without_running(self):
        job = make_job()
        job.mark_submitted()
        with pytest.raises(ValueError):
            job.mark_completed(1.0)


class TestDeadlineQuantities:
    def test_absolute_deadline(self):
        job = make_job(submit=100.0, deadline=50.0)
        assert job.absolute_deadline == 150.0

    def test_remaining_deadline(self):
        job = make_job(submit=100.0, deadline=50.0)
        assert job.remaining_deadline(120.0) == 30.0
        assert job.remaining_deadline(160.0) == -10.0

    def test_delay_zero_when_on_time(self):
        job = make_job(submit=0.0, runtime=10.0, deadline=100.0)
        job.mark_submitted(); job.mark_running(0.0, [0]); job.mark_completed(50.0)
        assert job.delay == 0.0
        assert job.deadline_met is True

    def test_delay_positive_when_late(self):
        job = make_job(submit=0.0, deadline=100.0)
        job.mark_submitted(); job.mark_running(0.0, [0]); job.mark_completed(130.0)
        assert job.delay == pytest.approx(30.0)
        assert job.deadline_met is False

    def test_delay_tolerance_absorbs_float_noise(self):
        job = make_job(submit=0.0, deadline=100.0)
        job.mark_submitted(); job.mark_running(0.0, [0])
        job.mark_completed(100.0 + DELAY_TOLERANCE / 2)
        assert job.delay == 0.0
        assert job.deadline_met is True

    def test_delay_none_before_completion(self):
        job = make_job()
        assert job.delay is None
        assert job.response_time is None
        assert job.slowdown is None

    def test_deadline_met_for_rejected_job_is_false(self):
        job = make_job()
        job.mark_submitted()
        job.mark_rejected()
        assert job.deadline_met is False

    def test_deadline_met_while_running_is_none(self):
        job = make_job()
        job.mark_submitted()
        job.mark_running(0.0, [0])
        assert job.deadline_met is None


class TestDerivedMetrics:
    def test_response_time_includes_wait(self):
        job = make_job(submit=10.0, runtime=20.0, deadline=1000.0)
        job.mark_submitted(); job.mark_queued()
        job.mark_running(30.0, [0])
        job.mark_completed(50.0)
        assert job.response_time == 40.0

    def test_slowdown(self):
        job = make_job(submit=0.0, runtime=20.0, deadline=1000.0)
        job.mark_submitted(); job.mark_running(0.0, [0]); job.mark_completed(60.0)
        assert job.slowdown == pytest.approx(3.0)

    def test_urgency_default_low(self):
        assert make_job().urgency is UrgencyClass.LOW
