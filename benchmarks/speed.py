"""Host-speed probe: a fixed piece of work, timed every few tens of ms.

A shared host changes speed by tens of percent over seconds, and by more
over hours, with the process's CPU time tracking its wall time. A wall-clock
rate therefore moves with the host as much as with the program. The probe
runs a fixed mix of interpreter, elementwise and small LAPACK work (the kinds
the library spends its time on) from a ``SIGALRM`` handler, so it samples the
host's speed throughout a pass, not only between passes. The handler runs in
the main thread between bytecodes and leaves the program's state alone.

``clock()`` is ``time.perf_counter`` minus the time spent inside the probe,
so latencies taken with it exclude the probe wherever it fires. ``speed``
turns a list of samples into the host's speed relative to ``REFERENCE_RATE``:
a time multiplied by it (or a rate divided by it) reads as it would on a host
that runs the probe ``REFERENCE_RATE`` times a second.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# about the probe's rate on the 2-vCPU Xeon VM the bounds were set on; only a
# scale, so that corrected values read close to the wall-clock ones
REFERENCE_RATE = 1000.0

_rng = np.random.default_rng(0)
_A36 = _rng.standard_normal((36, 36))
_A6 = _rng.standard_normal((6, 6))
_B36 = _rng.standard_normal(36)
_X = _rng.standard_normal(512)


def _work():
    np.linalg.eigvals(_A36)
    np.linalg.eigvals(_A6)
    np.linalg.solve(_A36, _B36)
    acc = {}
    for i in range(300):
        acc[i % 17] = acc.get(i % 17, 0.0) + i * 0.5
    y = _X
    for _ in range(20):
        y = np.exp(-np.abs(y)) * np.cos(y) + y * 0.5


class SpeedProbe:
    """Samples the host's speed while started; see the module docstring."""

    def __init__(self):
        self.paused = 0.0  # seconds spent inside the probe
        self.rates = []  # probe runs per second, one per sample
        _work()

    def sample(self, *_):
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.rates.append(1.0 / (t1 - t0))
        self.paused += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        return time.perf_counter() - self.paused

    def mark(self):
        """Take one sample now; returns its index for ``speed``."""
        self.sample()
        return len(self.rates) - 1

    def speed(self, since=0, until=None):
        """Mean sampled speed over ``rates[since:until]``, relative to
        ``REFERENCE_RATE`` (samples fall evenly in time, so the mean is the
        speed the work in that interval saw)."""
        return statistics.fmean(self.rates[since:until]) / REFERENCE_RATE
