"""Tests for the benchmark's statistics: ``python3 -m pytest perfbench``."""

import math
import statistics

import pytest

import stats


def test_median_odd_and_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_quartiles_match_statistics_quantiles():
    values = [float(v) for v in (9, 1, 7, 3, 5, 2, 8, 4, 6, 10)]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == stats.median(values)
    assert stats.quartiles([2.0] * 10) == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        stats.quartiles([1.0])


def test_tail_count_nearest_rank():
    assert stats.tail_count(200, 95) == 10
    assert stats.tail_count(199, 95) == 9
    assert stats.tail_count(100, 90) == 10
    assert stats.tail_count(1000, 99) == 10


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 201))  # 1..200
    assert stats.percentile(values, 95) == 190
    assert stats.percentile(values, 50) == 100
    with pytest.raises(ValueError):
        stats.percentile(values[:199], 95)
    with pytest.raises(ValueError):
        stats.percentile(values, 99)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_percentile_ignores_input_order():
    values = [float(v) for v in range(300)]
    shuffled = values[::7] + [v for i, v in enumerate(values) if i % 7]
    assert stats.percentile(shuffled, 95) == stats.percentile(values, 95) == 284.0


def test_highest_percentile_ladder():
    assert stats.highest_percentile(19) is None
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(100) == 90.0
    assert stats.highest_percentile(200) == 95.0
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(10_000) == 99.9
    for n in (20, 57, 200, 999, 10_000):
        p = stats.highest_percentile(n)
        assert stats.tail_count(n, p) >= stats.MIN_TAIL


def test_geomean():
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert stats.geomean([5.0]) == pytest.approx(5.0)
    values = [1.3, 2.7, 0.9, 4.1]
    expected = math.prod(values) ** (1 / len(values))
    assert stats.geomean(values) == pytest.approx(expected)
    with pytest.raises(ValueError):
        stats.geomean([])
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])
