"""Summary statistics the benchmark reports.

Every timing is reported as a median plus a tail percentile, and a tail
percentile is only reported when at least :data:`MIN_TAIL` samples lie
beyond it — a p95 over 40 samples is two data points, not a percentile.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10

#: Percentiles the benchmark may report, highest first.
LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(n: int, p: float) -> int:
    # Rounded first so 99.9% of 10000 is rank 9990, not 9991.
    return math.ceil(round(p / 100.0 * n, 9))


def tail_count(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


def percentile(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL` samples lie
    beyond it, so a caller can never report a tail it did not measure.
    """
    n = len(values)
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile {p} outside (0, 100)")
    if n == 0 or tail_count(n, p) < MIN_TAIL:
        raise ValueError(
            f"p{p:g} needs at least {MIN_TAIL} samples beyond it; "
            f"{n} sample(s) leave {tail_count(n, p) if n else 0}"
        )
    ordered = sorted(values)
    return ordered[_rank(n, p) - 1]


def highest_percentile(n: int) -> float | None:
    """The highest :data:`LADDER` percentile ``n`` samples can support."""
    for p in LADDER:
        if tail_count(n, p) >= MIN_TAIL:
            return p
    return None


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no samples")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))
