"""Unit tests for the circuit breaker and the failover parking lot."""

import pytest

from repro.service.sharding.breaker import CLOSED, HALF_OPEN, OPEN, ShardBreaker
from repro.service.sharding.parking import ParkingLot


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_breaker(threshold=3, reset=1.0):
    clock = FakeClock()
    breaker = ShardBreaker(
        0, failure_threshold=threshold, reset_timeout=reset, clock=clock
    )
    return breaker, clock


class TestShardBreaker:
    def test_starts_closed_and_allows(self):
        breaker, _ = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert breaker.retry_after() == 0.0

    def test_trips_after_consecutive_failures(self):
        breaker, _ = make_breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = make_breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # streak broken: 1, not 2

    def test_open_reports_remaining_cooldown(self):
        breaker, clock = make_breaker(threshold=1, reset=2.0)
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(2.0)
        clock.advance(1.5)
        assert breaker.retry_after() == pytest.approx(0.5)

    def test_cooldown_expiry_half_opens(self):
        breaker, clock = make_breaker(threshold=1, reset=1.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()

    def test_half_open_success_closes(self):
        breaker, clock = make_breaker(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.trips == 1

    def test_half_open_failure_restarts_the_cooldown(self):
        breaker, clock = make_breaker(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.retry_after() == pytest.approx(1.0)
        assert breaker.trips == 2

    def test_snapshot_shape(self):
        breaker, _ = make_breaker(threshold=1, reset=1.0)
        snap = breaker.snapshot()
        assert snap == {"state": CLOSED, "consecutive_failures": 0, "trips": 0}
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == OPEN
        assert snap["trips"] == 1
        assert snap["retry_after"] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardBreaker(0, failure_threshold=0)
        with pytest.raises(ValueError):
            ShardBreaker(0, reset_timeout=0.0)


class TestParkingLot:
    def test_fifo_order_is_preserved(self):
        lot = ParkingLot(0, capacity=8)
        for job_id in (5, 2, 9):
            assert lot.park(job_id, str(job_id).encode())
        taken = lot.take_all()
        assert [item.key for item in taken] == [5, 2, 9]
        assert len(lot) == 0

    def test_capacity_rejects_and_counts(self):
        lot = ParkingLot(0, capacity=2)
        assert lot.park(1, b"a")
        assert lot.park(2, b"b")
        assert not lot.park(3, b"c")
        assert lot.rejected_total == 1
        assert lot.parked_total == 2

    def test_repark_is_idempotent_and_keeps_first_body(self):
        lot = ParkingLot(0, capacity=2)
        assert lot.park(7, b"first")
        assert lot.park(7, b"second")  # retry: no new slot
        assert len(lot) == 1
        assert lot.take_all()[0].body == b"first"

    def test_anonymous_submits_never_collide(self):
        lot = ParkingLot(0, capacity=4)
        for _ in range(3):
            assert lot.park(None, b"x")
        assert len(lot) == 3

    def test_requeue_front_restores_head_order(self):
        lot = ParkingLot(0, capacity=8)
        for job_id in (1, 2, 3):
            lot.park(job_id, str(job_id).encode())
        taken = lot.take_all()
        # Flush got through item 1 only; 2 and 3 go back to the head.
        lot.park(9, b"late")
        lot.requeue_front(taken[1:])
        assert [item.key for item in lot.take_all()] == [2, 3, 9]

    def test_zero_capacity_lot_is_disabled(self):
        lot = ParkingLot(0, capacity=0)
        assert not lot.park(1, b"a")
        assert len(lot) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParkingLot(0, capacity=-1)

    def test_snapshot_shape(self):
        lot = ParkingLot(3, capacity=2)
        lot.park(1, b"a")
        lot.park(2, b"b")
        lot.park(3, b"c")
        lot.note_flushed(1)
        assert lot.snapshot() == {
            "parked": 2, "capacity": 2, "parked_total": 2,
            "flushed_total": 1, "rejected_total": 1,
        }
