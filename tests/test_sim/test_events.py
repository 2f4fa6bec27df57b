"""Tests for Event objects and their priority classes."""


from repro.sim.events import Event, EventPriority


class TestEventBasics:
    def test_time_coerced_to_float(self):
        ev = Event(3, EventPriority.NORMAL, None)
        assert isinstance(ev.time, float)

    def test_payload_round_trip(self):
        payload = {"job": 1}
        ev = Event(0.0, EventPriority.NORMAL, None, payload=payload)
        assert ev.payload is payload

    def test_cancel_flags(self):
        ev = Event(0.0, EventPriority.NORMAL, None)
        assert not ev.cancelled
        ev.cancel()
        assert ev.cancelled

    def test_cancel_is_idempotent(self):
        ev = Event(0.0, EventPriority.NORMAL, None)
        ev.cancel()
        ev.cancel()
        assert ev.cancelled


class TestPriorityValues:
    def test_completion_before_arrival(self):
        # The admission control must see capacity freed "now" before a
        # job arriving "now" is evaluated.
        assert EventPriority.COMPLETION < EventPriority.ARRIVAL

    def test_urgent_first_monitor_last(self):
        values = [
            EventPriority.URGENT,
            EventPriority.COMPLETION,
            EventPriority.ARRIVAL,
            EventPriority.NORMAL,
            EventPriority.MONITOR,
        ]
        assert values == sorted(values)
