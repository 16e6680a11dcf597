"""Host speed, so that timings from slow and fast spells of a machine compare.

On a shared machine the speed of a core changes from one moment to the
next, as other tenants come and go: a fixed piece of interpreter work takes
anywhere from one to two times its best time, and the share of slow
spells drifts over minutes.  That drift moves every timing of a run
together and says nothing about the program.  So, while a run measures,
the benchmark interrupts it every :data:`INTERVAL_S` of CPU time to run a
short fixed piece of its own interpreter work, :func:`calibrate`, and
reports each timing scaled to a host on which that piece takes
:data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / (mean of the calibrations around it)

The passes are spread evenly over the work, so their mean follows the
host's speed over the same spells the work ran in.  A round's timings are
scaled by the passes taken during that round, and a set-up by the passes
taken during that set-up.  The passes are kept out of every timing: workloads
read :meth:`HostClock.now`, a clock that stops while a pass runs.  The
calibration uses no code of the program, so a change to the program moves
the reported figures exactly as it moves the wall-clock ones, which are
printed beside them.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: Seconds one :func:`calibrate` pass takes on the reference host.  Any fixed
#: value would do; this one is about the mean on a shared 2-vCPU x86-64 VM,
#: so reported timings read close to wall-clock ones there.
REFERENCE_S = 0.002

#: CPU seconds between two passes, so passes take about a tenth of a run.
INTERVAL_S = 0.025

_ITERATIONS = 3_000


def calibrate() -> float:
    """Seconds one fixed pass of dict, string, list and float work takes now."""
    start = perf_counter()
    table: dict[str, int] = {}
    keys = []
    total = 0.0
    for i in range(_ITERATIONS):
        key = f"k{i & 511}"
        table[key] = table.get(key, 0) + i
        keys.append(key)
        total += (i % 13) * 0.5
    keys.sort()
    return perf_counter() - start


class HostClock:
    """Calibration passes taken so far, and a clock that excludes them."""

    def __init__(self) -> None:
        self.passes: list[float] = []
        self._excluded = 0.0

    def now(self) -> float:
        """``perf_counter()`` less the seconds spent in :meth:`sample`."""
        return perf_counter() - self._excluded

    def sample(self, *_signal) -> None:
        """Run one calibration pass and record it."""
        start = perf_counter()
        self.passes.append(calibrate())
        self._excluded += perf_counter() - start

    def start(self) -> None:
        """Sample every :data:`INTERVAL_S` of this process's CPU time."""
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, since: int = 0) -> float:
        """The factor that turns wall times into reference-host times:
        :data:`REFERENCE_S` over the mean of the passes from ``since`` on."""
        passes = self.passes[since:]
        if not passes:
            raise ValueError("no calibration pass to scale by")
        return REFERENCE_S * len(passes) / sum(passes)
