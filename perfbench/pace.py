"""Host-speed reference loop for the curvkit benchmark.

The benchmark runs on shared virtual machines whose speed drifts in phases
of seconds to minutes: the same command can take 40 % longer in one phase
than in the next, with process CPU time following wall time.  To take that
drift out of the timings, a `Meter` times a fixed reference loop right
before and right after every timed step and, on long steps, every
SAMPLE_S seconds within it, and scales the step's time by REF_S over the
mean of those loop times.  A scaled time is the time the step would take
on a host that runs the loop in REF_S seconds.

The loop mixes interpreted Python with small dense numpy work, as curvkit
does, and is about as long as the shortest curvkit commands.  It keeps its
own references to the numpy routines it calls, so the layer tracer, which
patches `numpy.linalg`, neither counts it nor slows it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np
from numpy.linalg import eigvalsh

#: seconds the loop takes on the host the baseline was recorded on
#: (2 vCPUs, Intel Xeon, Python 3.11, OpenBLAS on 1 thread) in a quiet phase
REF_S = 0.003

#: interval of the loops run within a step
SAMPLE_S = 0.03

_SYM = np.random.default_rng(0).standard_normal((16, 16))
_SYM = _SYM + _SYM.T


def loop() -> float:
    """Seconds one pass of the reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(9000):
        acc += (i * i) % 7
        table[i & 255] = acc
    x = _SYM
    for _ in range(75):
        eigvalsh(x)
        (x @ x).sum()
    return time.perf_counter() - t0


def scale(seconds: float, loops: list[float]) -> float:
    """`seconds` measured while the loop took `loops`, as it would read on
    the reference host."""
    return seconds * REF_S / statistics.fmean(loops)


class Meter:
    """Times steps one after another; each loop run between two steps
    serves both.  With `sample=False` no loop runs within a step, so that
    a layer tracer active during the step does not count the loop's time."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self._before = loop()
        self._within: list[float] = []
        self._paused = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._within.append(loop())
        self._paused += time.perf_counter() - t0

    def time(self, step):
        """Run `step()`; return its result, its raw seconds (without the
        loops run within it) and its seconds scaled to the reference host.
        A full collection first puts every step at the start of the
        collector's cycle, so that the collections a step triggers are its
        own and do not depend on what ran before it."""
        gc.collect()
        self._within, self._paused = [], 0.0
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            result = step()
        finally:
            elapsed = time.perf_counter() - t0
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        raw = elapsed - self._paused
        after = loop()
        loops = [self._before, *self._within, after]
        self._before = after
        return result, raw, scale(raw, loops)
