"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.experiments.compare import crossover_points, dominance_fraction, trend
from repro.cluster.share import ShareParams, admission_share, effective_rates, nominal_share
from repro.scheduling.risk import assess_delays, deadline_delay
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.workload.estimates import interpolate_inaccuracy
from repro.workload.swf import SWFRecord, parse_swf
from repro.workload.traces import TraceColumns, scale_arrivals

finite_pos = st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False)
small_pos = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestKernelProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=60))
    def test_events_fire_in_nondecreasing_time_order(self, times):
        sim = Simulator()
        fired: list[float] = []
        for t in times:
            sim.schedule_at(t, lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_same_time_events_fire_fifo(self, tags):
        sim = Simulator()
        fired: list[int] = []
        for tag in tags:
            sim.schedule_at(5.0, lambda ev, tag=tag: fired.append(tag))
        sim.run()
        assert fired == tags


class TestShareProperties:
    @given(small_pos, small_pos)
    def test_nominal_share_in_unit_interval(self, est, rem):
        s = nominal_share(est, rem)
        assert 0.0 < s <= 1.0

    @given(small_pos, small_pos)
    def test_nominal_matches_admission_when_feasible(self, est, rem):
        unclamped = admission_share(est, rem)
        assume(unclamped <= 1.0)
        assert nominal_share(est, rem) == pytest.approx(unclamped)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=30))
    def test_effective_rates_sum_bounded(self, shares):
        rates = effective_rates(shares)
        assert sum(rates) <= 1.0 + 1e-9
        assert all(r >= 0.0 for r in rates)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
                    min_size=1, max_size=30))
    def test_rescaling_preserves_proportions(self, shares):
        rates = effective_rates(shares)
        # rate_i / rate_j == share_i / share_j for all pairs (spot-check ends).
        if len(shares) >= 2 and rates[0] > 0 and rates[-1] > 0:
            assert rates[0] / rates[-1] == pytest.approx(shares[0] / shares[-1], rel=1e-6)

    @given(st.lists(st.floats(min_value=1e-6, max_value=0.2, allow_nan=False),
                    min_size=1, max_size=4))
    def test_redistribute_spare_fills_capacity(self, shares):
        rates = effective_rates(shares, ShareParams(redistribute_spare=True))
        assert sum(rates) == pytest.approx(1.0)


class TestRiskProperties:
    @given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False), finite_pos)
    def test_deadline_delay_at_least_one(self, delay, rem):
        assert deadline_delay(delay, rem) >= 1.0

    @given(finite_pos, finite_pos)
    def test_deadline_delay_monotone_in_delay(self, delay, rem):
        assert deadline_delay(delay, rem) <= deadline_delay(delay * 2.0, rem)

    @given(st.floats(min_value=1e-3, max_value=1e6), finite_pos)
    def test_deadline_delay_antitone_in_remaining(self, delay, rem):
        assert deadline_delay(delay, rem) >= deadline_delay(delay, rem * 2.0)

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), finite_pos,
    ), max_size=20))
    def test_sigma_nonnegative(self, pairs):
        a = assess_delays(pairs)
        assert a.sigma >= 0.0 or math.isinf(a.sigma)

    @given(st.lists(st.tuples(st.just(0.0), finite_pos), min_size=1, max_size=20))
    def test_all_on_time_always_zero_risk(self, pairs):
        a = assess_delays(pairs)
        assert a.zero_risk and a.strictly_safe
        assert a.mu == pytest.approx(1.0)


#: Runtimes of at least one second — the interpolation floors estimates
#: at 1 s, and real traces record integer seconds.
runtime_pos = st.floats(min_value=1.0, max_value=1e9, allow_nan=False, allow_infinity=False)


class TestEstimateProperties:
    @given(
        st.lists(runtime_pos, min_size=1, max_size=50),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_interpolation_bounded_by_endpoints(self, runtimes, pct):
        r = np.array(runtimes)
        t = r * 3.0  # over-estimates
        est = interpolate_inaccuracy(r, t, pct)
        assert np.all(est >= r - 1e-9)
        assert np.all(est <= t + 1e-9)

    @given(st.lists(runtime_pos, min_size=1, max_size=30))
    def test_interpolation_endpoints_exact(self, runtimes):
        r = np.array(runtimes)
        t = r * 2.5
        assert np.allclose(interpolate_inaccuracy(r, t, 0.0), np.maximum(r, 1.0))
        assert np.allclose(interpolate_inaccuracy(r, t, 100.0), np.maximum(t, 1.0))


class TestSWFProperties:
    @given(st.lists(st.tuples(
        st.integers(min_value=1, max_value=10**6),       # job number
        st.floats(min_value=0, max_value=1e8, allow_nan=False),  # submit
        st.floats(min_value=1, max_value=1e6, allow_nan=False),  # runtime
        st.integers(min_value=1, max_value=128),         # procs
    ), max_size=30))
    def test_parse_write_round_trip(self, rows):
        records = [
            SWFRecord(job_number=n, submit_time=float(s), run_time=float(r),
                      allocated_procs=p, requested_procs=p, requested_time=float(r) * 2)
            for n, s, r, p in rows
        ]
        text = "\n".join(r.to_line() for r in records)
        _, parsed = parse_swf(text)
        assert len(parsed) == len(records)
        for orig, back in zip(records, parsed):
            assert back.job_number == orig.job_number
            assert back.submit_time == pytest.approx(orig.submit_time)
            assert back.run_time == pytest.approx(orig.run_time)
            assert back.allocated_procs == orig.allocated_procs


class TestArrivalScalingProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                 min_size=2, max_size=30),
        st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
    )
    def test_interarrival_scaling_exact(self, submits, factor):
        submits = sorted(submits)
        records = TraceColumns.from_records([
            SWFRecord(job_number=i + 1, submit_time=s, run_time=10.0,
                      allocated_procs=1, requested_procs=1)
            for i, s in enumerate(submits)
        ])
        scaled = scale_arrivals(records, factor)
        orig, new = records.submit_time.tolist(), scaled.submit_time.tolist()
        for (a, b), (sa, sb) in zip(zip(orig, orig[1:]), zip(new, new[1:])):
            orig_gap = b - a
            new_gap = sb - sa
            assert new_gap == pytest.approx(orig_gap * factor, rel=1e-9, abs=1e-6)

    @given(st.floats(min_value=0.05, max_value=4.0, allow_nan=False))
    def test_scaling_preserves_order(self, factor):
        records = TraceColumns.from_records([
            SWFRecord(job_number=i + 1, submit_time=float(i * 17 % 97), run_time=1.0,
                      allocated_procs=1, requested_procs=1)
            for i in range(20)
        ])
        scaled = scale_arrivals(records, factor)
        times = scaled.submit_time.tolist()
        assert times == sorted(times)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    @settings(max_examples=25)
    def test_streams_reproducible_for_any_seed_and_name(self, seed, name):
        a = RngStreams(seed=seed).get(name).random(3)
        b = RngStreams(seed=seed).get(name).random(3)
        assert np.array_equal(a, b)


class TestAnalysisProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=30))
    def test_dominance_of_self_is_total(self, series):
        assert dominance_fraction(series, series) == 1.0

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=2, max_size=30))
    def test_crossovers_within_x_range(self, values):
        x = list(range(len(values)))
        other = [0.0] * len(values)
        for cx in crossover_points(x, values, other):
            assert x[0] <= cx <= x[-1]

    @given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=1, max_size=20))
    def test_trend_classification_total(self, values):
        assert trend(values) in ("increasing", "decreasing", "flat", "mixed")
