"""Fast-side estimators on hand-made samples."""

import pytest

from estimators import fast_quartile, fast_rank, floors, percentile, tail_percentile


def test_fast_quartile_is_third_fastest_of_twelve():
    assert fast_rank(12) == 3
    walls = [9.0, 1.0, 5.0, 2.0, 7.0, 3.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0]
    assert fast_quartile(walls) == 3.0


@pytest.mark.parametrize("n, rank", [(1, 1), (2, 1), (3, 1), (5, 1), (6, 2), (7, 2), (10, 2)])
def test_fast_rank_small_samples(n, rank):
    assert fast_rank(n) == rank


def test_fast_quartile_ignores_slow_outliers_and_the_single_best():
    walls = [1.00, 1.01, 1.02, 1.03, 5.0, 9.0, 0.5, 1.04]
    assert fast_quartile(walls) == 1.00  # 2nd fastest of 8: not the lucky 0.5


def test_floors_take_the_per_request_minimum_over_passes():
    passes = [[10.0, 2.0, 30.0], [1.0, 20.0, 30.0], [5.0, 5.0, 29.0]]
    assert floors(passes) == [1.0, 2.0, 29.0]


def test_floors_keep_an_algorithmic_tail_and_drop_a_preemption_spike():
    slow_path = [1.0, 1.0, 9.0, 1.0]  # request 2 is slow in every pass
    spiked = [1.0, 50.0, 9.0, 1.0]  # request 1 was preempted once
    assert floors([slow_path, spiked]) == [1.0, 1.0, 9.0, 1.0]


def test_floors_reject_passes_of_different_length():
    with pytest.raises(ValueError):
        floors([[1.0, 2.0], [1.0]])


def test_percentile_is_nearest_rank():
    data = sorted(float(i) for i in range(1, 101))
    assert percentile(data, 50.0) == 50.0
    assert percentile(data, 99.0) == 99.0
    assert percentile([3.0], 99.0) == 3.0


@pytest.mark.parametrize("n, q", [
    (30000, 99.0), (1500, 99.0), (1000, 99.0), (999, 90.0), (188, 90.0),
    (100, 90.0), (99, 50.0), (10, 50.0),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_percentile(n) == q


def test_yardstick_samples_are_positive_and_accumulate():
    from yardstick import Yardstick

    yard = Yardstick()
    yard.sample(times=2)
    yard.sample(times=1)
    assert len(yard.samples) == 3 and all(s > 0 for s in yard.samples)
