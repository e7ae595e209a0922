"""The host's speed, sampled while a workload runs.

On a shared virtual machine the speed of every computation drifts together:
the same markov sweep, timed in 10-second stretches over five minutes, took
from 0.33 to 0.60 s, and a loop of small numpy products timed beside it in
the same process slowed in step (5-second means correlate at 0.95). Stretches
that long cannot be averaged out within one run, so the benchmark measures
the drift beside the program: a fixed probe, written here and calling
nothing of the program, runs from a timer every ``INTERVAL_S`` seconds, and
each timed round is scaled by the probe's median time during it against its
time at the reference speed (``REFERENCE_PROBE_S``).

``Meter.clock`` is ``time.perf_counter`` less the time the probes took, so
that intervals timed with it do not count the probes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.spatial.distance import cdist

INTERVAL_S = 0.1
# The probe's time in the slower stretches of a 2-vCPU Intel Xeon (Sapphire
# Rapids, 2.0 GHz) virtual machine with one BLAS thread, where it took 1.2 to
# 1.7 ms (about 1.0 ms when the host was quiet); scaled figures are seconds
# at that speed.
REFERENCE_PROBE_S = 1.6e-3

_rng = np.random.default_rng(0)
_STREAM = _rng.random(1 << 17)
_WORK = np.empty_like(_STREAM)
_SQUARE = _rng.random((128, 128))
_QUERIES = _rng.random((24, 32))
_POINTS = _rng.random((512, 32))


def _probe() -> None:
    """A fixed mix of the kinds of work the program does, each part taking
    0.2 to 0.4 ms: an interpreter loop, an in-place partition of a 1 MB
    array, a dense product, and the distances from a few points to many with
    each row's nearest 20 picked out."""
    total = 0
    for i in range(6000):
        total += i
    np.copyto(_WORK, _STREAM)
    _WORK.partition(len(_WORK) // 2)
    _SQUARE @ _SQUARE
    np.argpartition(cdist(_QUERIES, _POINTS), 20, axis=1)


class Meter:
    """Probes run from a timer: their start times, durations and total."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.total = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.total += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.total

    def start(self) -> None:
        _probe()  # warm-up
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, since: float, until: float) -> float:
        """The factor that turns seconds timed between the ``perf_counter``
        times ``since`` and ``until`` into seconds at the reference speed:
        from the median probe in that interval, or the probe nearest it."""
        lo = bisect.bisect_left(self.starts, since)
        hi = bisect.bisect_left(self.starts, until)
        if hi > lo:
            took = statistics.median(self.durations[lo:hi])
        elif self.durations:
            took = self.durations[min(lo, len(self.durations) - 1)]
        else:
            raise RuntimeError("no probe ran")
        return REFERENCE_PROBE_S / took
