"""Calibration of job timings against a fixed loop sampled during the job.

On a shared machine the speed of one core swings by tens of percent within
a second, faster than a job lasts, so a loop timed before and after a job
does not track it.  Instead an interval timer interrupts the job every
PERIOD_S and runs a fixed snippet of interpreter work and small numpy calls
(the two kinds of work a job does), timing it.  run.py subtracts the snippet
time from the job's time and scales the rest by REF_S / (mean snippet time
in the job): "seconds on a core that runs the snippet in REF_S".
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.05
SNIPPET_ITERS = 5000
# the snippet's time on an idle core of the 2.1 GHz Xeon the benchmark was
# written on; it only sets the unit of calibrated seconds
REF_S = 0.0016

_A = np.linspace(0.5, 1.5, 9).reshape(3, 3)
# bound now, before a traced job wraps numpy.einsum
_EINSUM = np.einsum


class Sampler:
    """Times the snippet every PERIOD_S while started; keeps (start, end)."""

    def __init__(self, wrap=None):
        self.samples: list[tuple[float, float]] = []
        self._handler = wrap(self._snippet) if wrap else self._snippet

    def _snippet(self) -> None:
        scratch = {}
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(SNIPPET_ITERS):
            x = (i % 97) * 0.01
            scratch[i & 63] = x
            acc += math.sin(x) * x + scratch.get((i + 1) & 63, 0.0)
            if i % 32 == 0:
                acc += float(_EINSUM("ij,j->i", _A, _A[0])[0])
        self.samples.append((t0, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self._handler())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
