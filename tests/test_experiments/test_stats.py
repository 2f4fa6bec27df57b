"""Tests for replication statistics."""

import math

import pytest

from repro.experiments.stats import Summary, paired_difference, summarize


class TestSummarize:
    def test_single_value(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.stddev == 0.0
        assert s.ci95 == 0.0
        assert s.n == 1

    def test_mean_and_stddev(self):
        s = summarize([2.0, 4.0, 6.0])
        assert s.mean == pytest.approx(4.0)
        assert s.stddev == pytest.approx(2.0)
        assert s.n == 3

    def test_ci_uses_t_distribution(self):
        # n=3, dof=2 -> t = 4.303; ci = t * sd / sqrt(n)
        s = summarize([2.0, 4.0, 6.0])
        assert s.ci95 == pytest.approx(4.303 * 2.0 / math.sqrt(3), rel=1e-6)

    def test_large_sample_uses_normal(self):
        values = [float(i % 7) for i in range(100)]
        s = summarize(values)
        sd = s.stddev
        assert s.ci95 == pytest.approx(1.960 * sd / math.sqrt(100), rel=1e-6)

    def test_identical_values_zero_width(self):
        s = summarize([3.0] * 10)
        assert s.ci95 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_interval_bounds_and_overlap(self):
        a = Summary(mean=10.0, stddev=1.0, ci95=2.0, n=5)
        b = Summary(mean=13.0, stddev=1.0, ci95=2.0, n=5)
        c = Summary(mean=20.0, stddev=1.0, ci95=2.0, n=5)
        assert a.low == 8.0 and a.high == 12.0
        assert a.high < c.low and b.low < a.high

    def test_str(self):
        assert "±" in str(summarize([1.0, 2.0]))


class TestPairedDifference:
    def test_basic(self):
        d = paired_difference([5.0, 6.0, 7.0], [1.0, 2.0, 3.0])
        assert d.mean == pytest.approx(4.0)
        assert d.stddev == pytest.approx(0.0)

    def test_pairing_cancels_shared_variance(self):
        # Wildly different workloads per seed, constant per-seed gap.
        a = [10.0, 90.0, 45.0, 70.0]
        b = [8.0, 88.0, 43.0, 68.0]
        d = paired_difference(a, b)
        assert d.mean == pytest.approx(2.0)
        assert d.ci95 == pytest.approx(0.0, abs=1e-9)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            paired_difference([1.0], [1.0, 2.0])


class TestSignificance:
    """The replicate section's claim holds iff the paired gap's 95 % CI lies above 0."""

    def test_clear_winner(self):
        assert paired_difference([10.0, 11.0, 12.0], [1.0, 2.0, 3.0]).low > 0.0

    def test_noise_not_significant(self):
        assert not paired_difference([1.0, 5.0, 2.0], [4.0, 1.0, 3.0]).low > 0.0

    def test_direction_matters(self):
        assert not paired_difference([1.0, 2.0, 3.0], [10.0, 11.0, 12.0]).low > 0.0
