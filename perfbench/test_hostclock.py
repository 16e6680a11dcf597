"""Tests for the host-speed scaling: ``python3 -m pytest perfbench``."""

from time import perf_counter

import pytest

import hostclock


def test_factor_is_reference_over_mean_pass():
    clock = hostclock.HostClock()
    clock.passes = [hostclock.REFERENCE_S / 2, hostclock.REFERENCE_S * 1.5]
    assert clock.factor() == pytest.approx(1.0)
    assert clock.factor(since=1) == pytest.approx(1 / 1.5)
    with pytest.raises(ValueError):
        clock.factor(since=2)


def test_now_leaves_out_calibration_passes():
    clock = hostclock.HostClock()
    start, wall = clock.now(), perf_counter()
    for _ in range(20):
        clock.sample()
    assert len(clock.passes) == 20
    spent = perf_counter() - wall
    assert clock.now() - start < 0.1 * spent


def test_timer_samples_while_running_and_not_after_stop():
    clock = hostclock.HostClock()
    clock.start()
    try:
        deadline = perf_counter() + 1.0
        while len(clock.passes) < 3 and perf_counter() < deadline:
            sum(range(1000))
    finally:
        clock.stop()
    assert len(clock.passes) >= 3
    taken = len(clock.passes)
    end = perf_counter() + 0.2
    while perf_counter() < end:
        sum(range(1000))
    assert len(clock.passes) == taken
