"""Machine-speed probe that runs while a unit of work is timed.

On a 2-vCPU virtual machine whose cores are shared with other tenants, the
speed of one process drifts by 20% or more over tens of seconds while its CPU
time stays equal to its wall time, so repeating work inside one run does not
average the drift out. The probe measures it where it happens: a timer
interrupts the main thread every PERIOD_S seconds and times a fixed burst of
small numpy and interpreter work of the simulator's kinds. The burst time is
left out of the unit's work time, and the unit's rate is multiplied by the
mean burst time over REFERENCE_BURST_S: intervals per second at the machine
speed of the reference. The burst code is fixed here, so a change to marlsched
moves the scaled rate in proportion to the unscaled one.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_BURST_S = 0.0044  # median burst on an idle 2-vCPU Xeon VM; sets the scale

_rng = np.random.default_rng(0)
_SMALL = _rng.random((24, 4, 16))     # default-layout fading block
_LARGE = _rng.random((100, 10, 16))   # N=10, K=100 fading block
_PF = _rng.random(100)
_X = _rng.random((10, 24))
_W = _rng.random((24, 128))
_M = _rng.random((8, 8))


def burst():
    """Fixed work of the simulator's kinds: cosines, sorts, small matmuls."""
    for i in range(20):
        x = np.cos(_SMALL * i + 1.0).sum(axis=-1)
        float((x * _SMALL[:, :, 0]).sum())
        _M @ _M
        sorted(range(24), key=lambda j: (-_PF[j], j))
    for i in range(6):
        np.cos(_LARGE * i + 1.0).sum(axis=-1)
        for b in range(8):
            sorted(range(10 * b, 10 * b + 10), key=lambda j: (-_PF[j], j))[:3]
        np.tanh(_X @ _W)


class Probe:
    """Context manager: `bursts` holds burst times, `spent_s` all probe time."""

    def __init__(self):
        self.bursts: list[float] = []
        self.spent_s = 0.0

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        burst()
        end = time.perf_counter()
        self.bursts.append(end - start)
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed_factor(self, fallback: float) -> float:
        """Mean burst time over the reference (above 1 on a slow machine), or
        `fallback` when the timed work ended before the first burst."""
        if not self.bursts:
            return fallback
        return sum(self.bursts) / len(self.bursts) / REFERENCE_BURST_S
