"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventPriority
from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_schedule_fires_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(7.5, lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [7.5]

    def test_schedule_relative_delay(self, sim):
        fired = []
        sim.schedule(3.0, lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_relative_delay_is_from_current_now(self, sim):
        fired = []

        def first(ev):
            sim.schedule(2.0, lambda e: fired.append(sim.now))

        sim.schedule(5.0, first)
        sim.run()
        assert fired == [7.0]

    def test_schedule_in_past_raises(self, sim):
        sim.schedule_at(10.0, lambda ev: None)
        sim.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule_at(5.0, lambda ev: None)

    def test_schedule_nan_raises(self, sim):
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_at(float("nan"), lambda ev: None)

    def test_schedule_inf_raises(self, sim):
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_at(float("inf"), lambda ev: None)

    def test_schedule_at_current_time_allowed(self, sim):
        fired = []
        sim.schedule_at(0.0, lambda ev: fired.append("x"))
        sim.run()
        assert fired == ["x"]

    def test_schedule_event_object(self, sim):
        fired = []
        ev = Event(4.0, EventPriority.NORMAL, lambda e: fired.append(e.name), name="obj")
        sim.schedule_event(ev)
        sim.run()
        assert fired == ["obj"]

    def test_schedule_event_in_past_raises(self, sim):
        sim.schedule_at(1.0, lambda ev: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_event(Event(0.5, EventPriority.NORMAL, None))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_event_non_finite_raises(self, sim, bad):
        # `nan < now` is False, so a past-only check lets NaN into the
        # heap, where it compares false against everything.
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_event(Event(bad, EventPriority.NORMAL, None))
        assert sim.pending == 0


class TestOrdering:
    def test_time_order(self, sim):
        order = []
        sim.schedule_at(3.0, lambda ev: order.append(3))
        sim.schedule_at(1.0, lambda ev: order.append(1))
        sim.schedule_at(2.0, lambda ev: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_priority_breaks_time_ties(self, sim):
        order = []
        sim.schedule_at(1.0, lambda ev: order.append("arrival"), priority=EventPriority.ARRIVAL)
        sim.schedule_at(
            1.0, lambda ev: order.append("completion"), priority=EventPriority.COMPLETION
        )
        sim.run()
        assert order == ["completion", "arrival"]

    def test_fifo_within_same_time_and_priority(self, sim):
        order = []
        for i in range(10):
            sim.schedule_at(1.0, lambda ev, i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_monitor_priority_runs_last(self, sim):
        order = []
        sim.schedule_at(1.0, lambda ev: order.append("monitor"), priority=EventPriority.MONITOR)
        sim.schedule_at(1.0, lambda ev: order.append("normal"), priority=EventPriority.NORMAL)
        sim.run()
        assert order == ["normal", "monitor"]

    def test_event_scheduled_at_now_runs_in_same_pass(self, sim):
        order = []

        def outer(ev):
            order.append("outer")
            sim.schedule(0.0, lambda e: order.append("inner"))

        sim.schedule_at(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 1.0


class TestRun:
    def test_run_until_stops_clock_at_bound(self, sim):
        sim.schedule_at(10.0, lambda ev: None)
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_run_until_executes_events_at_bound(self, sim):
        fired = []
        sim.schedule_at(5.0, lambda ev: fired.append("x"))
        sim.run(until=5.0)
        assert fired == ["x"]

    def test_run_until_in_past_raises(self, sim):
        sim.schedule_at(10.0, lambda ev: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_resume_after_until(self, sim):
        fired = []
        sim.schedule_at(10.0, lambda ev: fired.append(sim.now))
        sim.run(until=5.0)
        sim.run()
        assert fired == [10.0]

    def test_stop_aborts_run(self, sim):
        fired = []

        def stopper(ev):
            fired.append("stop")
            sim.stop()

        sim.schedule_at(1.0, stopper)
        sim.schedule_at(2.0, lambda ev: fired.append("after"))
        sim.run()
        assert fired == ["stop"]
        sim.run()
        assert fired == ["stop", "after"]

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def loop(ev):
            sim.schedule(0.0, loop)

        sim.schedule_at(0.0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_events_fired_counts(self, sim):
        for i in range(5):
            sim.schedule_at(float(i), lambda ev: None)
        sim.run()
        assert sim.events_fired == 5

    def test_empty_run_is_noop(self, sim):
        sim.run()
        assert sim.now == 0.0
        assert sim.events_fired == 0

    def test_start_time(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0
        with pytest.raises(SimulationError):
            sim.schedule_at(50.0, lambda ev: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        ev = sim.schedule_at(1.0, lambda e: fired.append("x"))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_from_earlier_event(self, sim):
        fired = []
        later = sim.schedule_at(2.0, lambda e: fired.append("later"))
        sim.schedule_at(1.0, lambda e: later.cancel())
        sim.run()
        assert fired == []

    def test_peek_skips_cancelled(self, sim):
        ev = sim.schedule_at(1.0, lambda e: None)
        sim.schedule_at(2.0, lambda e: None)
        ev.cancel()
        assert sim.peek() == 2.0

    def test_drain_cancelled(self, sim):
        events = [sim.schedule_at(float(i + 1), lambda e: None) for i in range(10)]
        for ev in events[:7]:
            ev.cancel()
        removed = sim.drain_cancelled()
        assert removed == 7
        assert sim.pending == 3
        sim.run()
        assert sim.events_fired == 3

    def test_iter_pending_excludes_cancelled(self, sim):
        keep = sim.schedule_at(1.0, lambda e: None, name="keep")
        drop = sim.schedule_at(2.0, lambda e: None, name="drop")
        drop.cancel()
        names = [e.name for e in sim.iter_pending()]
        assert names == ["keep"]
        keep.cancel()  # silence unused warnings


class TestStep:
    def test_step_executes_single_event(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda e: fired.append(1))
        sim.schedule_at(2.0, lambda e: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
        assert sim.now == 1.0

    def test_step_on_empty_queue(self, sim):
        assert sim.step() is False


class TestDeterminism:
    def test_identical_schedules_identical_execution(self):
        def build():
            sim = Simulator()
            order = []
            for i in range(50):
                t = (i * 37) % 11
                sim.schedule_at(float(t), lambda ev, i=i: order.append(i))
            sim.run()
            return order

        assert build() == build()


class TestOnEventObserver:
    def test_observer_sees_every_fired_event(self, sim):
        seen = []
        sim.on_event = lambda ev: seen.append(ev.name)
        sim.schedule_at(1.0, lambda e: None, name="a")
        sim.schedule_at(2.0, lambda e: None, name="b")
        sim.run()
        assert seen == ["a", "b"]

    def test_observer_skips_cancelled_events(self, sim):
        seen = []
        sim.on_event = lambda ev: seen.append(ev.name)
        ev = sim.schedule_at(1.0, lambda e: None, name="gone")
        sim.schedule_at(2.0, lambda e: None, name="kept")
        ev.cancel()
        sim.run()
        assert seen == ["kept"]

    def test_observer_fires_before_callback(self, sim):
        order = []
        sim.on_event = lambda ev: order.append("observe")
        sim.schedule_at(1.0, lambda e: order.append("callback"))
        sim.run()
        assert order == ["observe", "callback"]

    def test_constructor_accepts_observer(self):
        seen = []
        sim = Simulator(on_event=lambda ev: seen.append(ev.time))
        sim.schedule_at(3.0, lambda e: None)
        sim.run()
        assert seen == [3.0]


# One step of the interleaving property below.
_OPS = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(0, 6),                                   # time offset
        st.sampled_from(sorted(int(p) for p in EventPriority)),
        st.booleans(),                                       # reschedule at now when fired
    ),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("step")),
)


class TestHeapModel:
    """The tuple heap against a plain list sorted by ``Event.sort_key()``."""

    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_OPS, max_size=60))
    def test_interleavings_match_sorted_model(self, ops):
        sim = Simulator()
        model: list[Event] = []   # every event still in the heap, tombstones included
        fired: list[Event] = []
        expected: list[Event] = []
        dropped = 0

        def callback(event):
            fired.append(event)
            if event.payload:  # schedule at the current instant from a callback
                model.append(
                    sim.schedule_at(sim.now, callback, priority=event.priority)
                )

        def live():
            return sorted((e for e in model if not e.cancelled), key=Event.sort_key)

        for op in ops:
            if op[0] == "schedule":
                _, offset, priority, again = op
                model.append(
                    sim.schedule(float(offset), callback, priority=priority, payload=again)
                )
            elif op[0] == "cancel" and model:
                model[op[1] % len(model)].cancel()
            elif op[0] == "drain":
                removed = sim.drain_cancelled()
                assert removed == sum(e.cancelled for e in model)
                dropped += removed
                model = [e for e in model if not e.cancelled]
            elif op[0] == "step":
                order = live()
                assert sim.peek() == (order[0].time if order else None)
                # peek/step discard the tombstones ahead of the first live event.
                head = order[0].sort_key() if order else None
                stale = [
                    e for e in model
                    if e.cancelled and (head is None or e.sort_key() < head)
                ]
                dropped += len(stale)
                model = [e for e in model if e not in stale]
                assert sim.step() is bool(order)
                if order:
                    expected.append(order[0])
                    model.remove(order[0])
            assert sim.pending == len(model)
            assert sim.tombstones_dropped == dropped
            assert sorted(sim.iter_pending(), key=Event.sort_key) == live()

        # run() fires what is left — including same-instant events the
        # callbacks add while it runs — in sort_key order.
        mark = len(fired)
        sim.run()
        tail = fired[mark:]
        assert [e.sort_key() for e in tail] == sorted(e.sort_key() for e in tail)
        assert {id(e) for e in tail} >= {id(e) for e in model if not e.cancelled}
        assert all(not e.cancelled for e in fired)
        assert fired[:mark] == expected
        assert sim.pending == 0
        assert sim.events_fired == len(fired)
