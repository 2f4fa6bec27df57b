"""Tests for series comparison helpers."""

import pytest

from repro.experiments.compare import crossover_points, dominance_fraction, trend


class TestDominance:
    def test_full_dominance(self):
        assert dominance_fraction([2, 3, 4], [1, 2, 3]) == 1.0

    def test_half(self):
        assert dominance_fraction([2, 1], [1, 2]) == 0.5

    def test_lower_is_better(self):
        assert dominance_fraction([1, 1], [2, 2], higher_is_better=False) == 1.0

    def test_tolerance_counts_near_ties(self):
        assert dominance_fraction([0.99], [1.0], tolerance=0.05) == 1.0
        assert dominance_fraction([0.99], [1.0]) == 0.0


class TestCrossover:
    def test_no_crossing(self):
        assert crossover_points([0, 1, 2], [5, 6, 7], [1, 2, 3]) == []

    def test_single_crossing_interpolated(self):
        # a-b: +1 at x=0, -1 at x=1 -> crossing at x=0.5.
        xs = crossover_points([0.0, 1.0], [2.0, 1.0], [1.0, 2.0])
        assert xs == [pytest.approx(0.5)]

    def test_paper_fig1_style_crossover(self):
        # EDF beats Libra at low factor, loses after ~0.3.
        x = [0.1, 0.2, 0.3, 0.4]
        edf = [86.0, 88.0, 86.0, 84.0]
        libra = [77.0, 85.0, 92.0, 95.0]
        xs = crossover_points(x, edf, libra)
        assert len(xs) == 1
        assert 0.2 <= xs[0] <= 0.3

    def test_exact_tie_at_grid_point(self):
        xs = crossover_points([0, 1, 2], [1, 2, 3], [1, 1, 1])
        assert xs[0] == 0.0

    def test_tie_at_last_point(self):
        xs = crossover_points([0, 1], [2, 3], [1, 3])
        assert 1.0 in xs

    def test_misaligned_x(self):
        with pytest.raises(ValueError):
            crossover_points([0], [1, 2], [1, 2])


class TestTrend:
    def test_increasing(self):
        assert trend([1, 2, 3]) == "increasing"

    def test_decreasing(self):
        assert trend([3, 2, 1]) == "decreasing"

    def test_flat(self):
        assert trend([1, 1, 1]) == "flat"

    def test_mixed(self):
        assert trend([1, 3, 2]) == "mixed"

    def test_tolerance_absorbs_noise(self):
        assert trend([1.0, 1.005, 2.0], tolerance=0.01) == "increasing"

    def test_single_point_flat(self):
        assert trend([5.0]) == "flat"
