"""Tests for the constant-memory windowed telemetry aggregator."""

import json
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.windows import MAX_REASONS, OVERFLOW_REASON, WindowAggregator


def policy_snapshot(agg: WindowAggregator, t: float, policy: str = "p") -> dict:
    return agg.snapshot(t)["policies"][policy]


class TestWindowedCounter:
    """One policy's windowed counts: sliding, decay, jumps, stale times."""

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            WindowAggregator(window=0.0)
        with pytest.raises(ValueError, match="window"):
            WindowAggregator(window=math.inf)
        with pytest.raises(ValueError, match="buckets"):
            WindowAggregator(buckets=0)

    def test_counts_within_window(self):
        agg = WindowAggregator(window=60.0, buckets=6)
        for t in (0.0, 10.0, 20.0):
            agg.note_decision(t, "p", "accepted")
        assert policy_snapshot(agg, 20.0)["submitted"] == 3.0

    def test_old_events_slide_out(self):
        agg = WindowAggregator(window=60.0, buckets=6)
        agg.note_decision(0.0, "p", "accepted")
        agg.note_decision(5.0, "p", "accepted")
        # Reading far past the window must decay the count to zero.
        assert policy_snapshot(agg, 0.0)["submitted"] == 2.0
        assert policy_snapshot(agg, 500.0)["submitted"] == 0.0

    def test_huge_time_jump_zeroes_everything(self):
        agg = WindowAggregator(window=60.0, buckets=6)
        agg.note_decision(1.0, "p", "rejected", "x")
        agg.note_decision(1e9, "p", "accepted")
        snap = policy_snapshot(agg, 1e9)
        assert snap["submitted"] == 1.0
        assert snap["rejected"] == 0.0
        assert snap["reject_reasons"] == {}

    def test_stale_read_behind_cursor_is_harmless(self):
        agg = WindowAggregator(window=60.0, buckets=6)
        agg.note_decision(100.0, "p", "accepted")
        # A reader with an older timestamp must not rewind the window.
        assert policy_snapshot(agg, 40.0)["submitted"] == 1.0
        assert policy_snapshot(agg, 100.0)["submitted"] == 1.0

    def test_memory_is_constant(self):
        agg = WindowAggregator(window=10.0, buckets=5)
        for i in range(10_000):
            agg.note_decision(float(i), "p", "accepted")
        assert len(agg._slices["p"]) == 5


class TestPolicyWindow:
    """Loss ratio and the rejection-reason series of one policy."""

    def test_loss_ratio(self):
        agg = WindowAggregator(window=100.0, buckets=10)
        agg.note_decision(1.0, "p", "accepted")
        agg.note_decision(2.0, "p", "rejected", "deadline_infeasible")
        agg.note_decision(3.0, "p", "rejected", "deadline_infeasible")
        snap = policy_snapshot(agg, 3.0)
        assert snap["loss_ratio"] == pytest.approx(2.0 / 3.0)
        assert snap["submitted"] == 3.0
        assert snap["rejected"] == 2.0
        assert snap["reject_reasons"] == {"deadline_infeasible": 2.0}

    def test_idle_window_has_zero_loss(self):
        agg = WindowAggregator(window=100.0, buckets=10)
        assert agg.snapshot(0.0)["policies"] == {}
        agg.note_decision(0.0, "p", "rejected", "x")
        assert policy_snapshot(agg, 1e6)["loss_ratio"] == 0.0

    def test_unspecified_reason_gets_a_name(self):
        agg = WindowAggregator(window=100.0, buckets=10)
        agg.note_decision(1.0, "p", "rejected", "")
        assert policy_snapshot(agg, 1.0)["reject_reasons"] == {"<unspecified>": 1.0}

    def test_reason_cardinality_is_capped(self):
        agg = WindowAggregator(window=1000.0, buckets=10)
        for i in range(MAX_REASONS + 20):
            agg.note_decision(1.0, "p", "rejected", f"reason-{i:03d}")
        snap = policy_snapshot(agg, 1.0)
        assert len(snap["reject_reasons"]) == MAX_REASONS + 1
        assert snap["reject_reasons"][OVERFLOW_REASON] == 20.0

    def test_expired_reasons_drop_from_snapshot(self):
        agg = WindowAggregator(window=10.0, buckets=5)
        agg.note_decision(0.0, "p", "rejected", "stale")
        assert policy_snapshot(agg, 500.0)["reject_reasons"] == {}

    def test_reason_cap_remembers_expired_names(self):
        agg = WindowAggregator(window=10.0, buckets=5)
        for i in range(MAX_REASONS):
            agg.note_decision(0.0, "p", "rejected", f"reason-{i:03d}")
        # The first names left the window, but they still fill the cap.
        agg.note_decision(500.0, "p", "rejected", "late")
        assert policy_snapshot(agg, 500.0)["reject_reasons"] == {OVERFLOW_REASON: 1.0}

    def test_stale_note_lands_in_the_cursor_slice(self):
        agg = WindowAggregator(window=100.0, buckets=10)
        agg.note_decision(0.0, "p", "rejected", "a")
        agg.note_decision(500.0, "p", "accepted")
        # Behind the cursor (a second run replayed from t=0): every
        # series counts it in the cursor's slice, so it stays in step.
        agg.note_decision(10.0, "p", "rejected", "a")
        snap = policy_snapshot(agg, 500.0)
        assert snap["submitted"] == 2.0
        assert snap["rejected"] == 1.0
        assert snap["reject_reasons"] == {"a": 1.0}
        assert snap["loss_ratio"] == 0.5


class TestWindowAggregator:
    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            WindowAggregator(window=-1.0)
        with pytest.raises(ValueError, match="buckets"):
            WindowAggregator(buckets=0)

    def test_snapshot_shape(self):
        agg = WindowAggregator(window=100.0, buckets=10)
        agg.note_decision(1.0, "librarisk", "accepted")
        agg.note_decision(2.0, "librarisk", "rejected", "risk_too_high")
        snap = agg.snapshot(2.0)
        assert snap["t"] == 2.0
        assert snap["window_s"] == 100.0
        assert list(snap["policies"]) == ["librarisk"]
        assert snap["policies"]["librarisk"]["loss_ratio"] == pytest.approx(0.5)

    def test_replay_reproduces_live_state(self):
        class FakeDecision:
            def __init__(self, t, outcome, reason=""):
                self.t = t
                self.policy = "edf"
                self.outcome = outcome
                self.reason = reason

        decisions = [
            FakeDecision(1.0, "accepted"),
            FakeDecision(2.0, "rejected", "no_capacity"),
            FakeDecision(3.0, "accepted"),
        ]
        live = WindowAggregator(window=50.0, buckets=10)
        for d in decisions:
            live.note_decision(d.t, d.policy, d.outcome, d.reason)
        restored = WindowAggregator(window=50.0, buckets=10)
        restored.replay(decisions)
        assert restored.snapshot(3.0) == live.snapshot(3.0)

    def test_concurrent_notes_do_not_lose_counts(self):
        agg = WindowAggregator(window=1000.0, buckets=10)
        n_threads, per_thread = 8, 500

        def hammer():
            for i in range(per_thread):
                agg.note_decision(float(i % 100), "edf", "rejected", "race")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = agg.snapshot(100.0)["policies"]["edf"]
        assert snap["submitted"] == float(n_threads * per_thread)
        assert snap["rejected"] == float(n_threads * per_thread)

    def test_snapshot_is_atomic_under_concurrent_notes(self):
        """A scrape racing submits reports a loss ratio of its own fields."""
        agg = WindowAggregator(window=1000.0, buckets=10)
        n_threads, per_thread = 8, 5_000
        done = threading.Event()
        snapshots = []

        def write(k):
            for i in range(per_thread):
                outcome = "rejected" if (i + k) % 3 == 0 else "accepted"
                agg.note_decision(float(i // 10), "edf", outcome, "race")

        def read():
            while not done.is_set():
                snapshots.append(agg.snapshot(50.0)["policies"].get("edf"))

        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write, args=(k,)) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            reader.start()
            for w in writers:
                w.start()
            for w in writers:
                w.join(timeout=60.0)
            done.set()
            reader.join(timeout=60.0)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(w.is_alive() for w in writers)
        final = agg.snapshot(50.0)["policies"]["edf"]
        assert final["submitted"] == float(n_threads * per_thread)
        snapshots.append(final)
        for snap in filter(None, snapshots):
            assert snap["loss_ratio"] == snap["rejected"] / snap["submitted"]
            assert snap["reject_reasons"].get("race", 0.0) == snap["rejected"]

    def test_soak_memory_is_o_window_not_o_jobs(self):
        """100k decisions must not grow state beyond the window's slices."""
        agg = WindowAggregator(window=3600.0, buckets=60)
        probes = []
        for i in range(100_000):
            outcome = "rejected" if i % 3 == 0 else "accepted"
            agg.note_decision(float(i), "librarisk", outcome,
                              f"reason-{i % 5}" if outcome == "rejected" else "")
            if i in (1_000, 50_000, 99_999):
                probes.append(agg.memory_items())
        # One policy, <= 5 distinct reasons: (2 + 5) * 60 cells max.
        assert max(probes) <= (2 + 5) * 60
        # Memory stopped growing long before the soak ended.
        assert probes[-1] == probes[-2]


# -- oracle: a naive fold that keeps every note ------------------------------

def reference_snapshots(ops, window, buckets):
    """Every snapshot the ops' reads take, by brute force over all notes."""
    width = window / buckets
    cursor, notes, seen, out = {}, {}, {}, []
    for op in ops:
        index = math.floor(op[1] / width)
        if op[0] == "note":
            _, _, policy, outcome, reason = op
            cursor[policy] = max(cursor.get(policy, index), index)
            if outcome == "rejected":
                reason = reason or "<unspecified>"
                names = seen.setdefault(policy, set())
                if reason not in names and len(names) >= MAX_REASONS:
                    reason = OVERFLOW_REASON
                names.add(reason)
            notes.setdefault(policy, []).append((cursor[policy], outcome, reason))
            continue
        policies = {}
        for policy in sorted(notes):
            cursor[policy] = max(cursor[policy], index)
            live = [n for n in notes[policy] if n[0] > cursor[policy] - buckets]
            rejected = [n[2] for n in live if n[1] == "rejected"]
            submitted, n_rejected = float(len(live)), float(len(rejected))
            policies[policy] = {
                "window_s": window, "submitted": submitted, "rejected": n_rejected,
                "loss_ratio": n_rejected / submitted if submitted else 0.0,
                "reject_reasons": {r: float(rejected.count(r)) for r in sorted(set(rejected))},
            }
        out.append({"t": float(op[1]), "window_s": window, "policies": policies})
    return out


POLICIES = ("edf", "libra", "librarisk")
REASONS = [""] + [f"r{i:02d}" for i in range(MAX_REASONS + 4)]
#: Gaps in simulated seconds (window 10 s, 5 slices of 2 s): same
#: slice, the next one, several, exactly one window, far beyond.
GAPS = (0.0, 0.25, 1.5, 2.0, 3.75, 10.0, 17.0, 1e4)
#: Read offsets from the latest note: earlier, equal, later, far future.
READ_OFFSETS = (-25.0, -4.0, -1.0, 0.0, 0.0, 1.0, 6.0, 10.0, 1e6)

note_step = st.tuples(
    st.just("note"), st.sampled_from(POLICIES), st.sampled_from(GAPS),
    st.sampled_from(("accepted", "queued", "rejected")), st.sampled_from(REASONS),
)
read_step = st.tuples(st.just("read"), st.sampled_from(READ_OFFSETS))


def build_ops(steps, flood):
    """Absolute-time ops, monotone per policy, policies interleaved."""
    ops = []
    if flood:  # more distinct reasons than the cap, before anything else
        ops += [("note", 0.0, "edf", "rejected", f"f{i:02d}") for i in range(MAX_REASONS + 3)]
    clock = {policy: 0.0 for policy in POLICIES}
    for step in steps:
        if step[0] == "note":
            _, policy, gap, outcome, reason = step
            clock[policy] += gap
            ops.append(("note", clock[policy], policy, outcome, reason))
        else:
            ops.append(("read", max(max(clock.values()) + step[1], 0.0)))
    ops.append(("read", max(clock.values())))
    return ops


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(note_step, note_step, read_step), max_size=80),
           st.booleans(), st.sampled_from((1, 5)))
    def test_matches_a_naive_fold_byte_for_byte(self, steps, flood, buckets):
        ops = build_ops(steps, flood)
        agg = WindowAggregator(window=10.0, buckets=buckets)
        got = []
        for op in ops:
            if op[0] == "note":
                agg.note_decision(op[1], op[2], op[3], op[4])
            else:
                got.append(agg.snapshot(op[1]))
        expected = reference_snapshots(ops, 10.0, buckets)
        assert [json.dumps(s) for s in got] == \
            [json.dumps(s) for s in expected]
