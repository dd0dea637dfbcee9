"""Operation time at a reference machine speed.

The benchmark runs on a shared host whose speed drifts by 20-30% over
seconds to minutes, the same for every kind of Python-bound work.  Raw
wall-clock rates of two runs of the same code then differ by more than a
change worth catching.  So every timed operation is paced: every
PROBE_EVERY_S seconds of operation time, a SIGALRM handler (no thread; it
runs between two bytecodes of the operation) times a short fixed probe made
of the benchmark's own code, a mix of scalar Python arithmetic and small
numpy/scipy series like the package's own.  Each slice of operation time is
scaled by PROBE_REF_S over the median time of the probe that ends it and
the PROBE_WINDOW - 1 before it (a probe that the OS happened to preempt
does not count), and the slices are summed.  The result is the operation's
time had the machine run at the speed where the probe takes PROBE_REF_S;
probe time itself is not counted.  Over 150 s of drift, the 5 s medians of a chain evaluation, a
smile and a quadrature price spread 0.14-0.16 (IQR over median) raw and
0.02-0.06 paced.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import oracles

PROBE_EVERY_S = 0.05
PROBE_WINDOW = 5
# the probe's median time on the reference machine (see README.md)
PROBE_REF_S = 1.3e-3


def probe():
    for k in range(300):
        oracles.bs_call(100.0, 80.0 + 0.1 * k, 0.01, 0.5, 0.2)
    oracles.mean_factor(1.7, 0.9, 0.2, 1.0)
    oracles.mean_factor(1.5, 1.1, 0.3, 0.5)


class Span:
    """One timed block: its wall time and its paced time, probes excluded."""

    def __init__(self):
        self.raw_s = 0.0
        self.paced_s = 0.0


class Pacer:
    """Times spans of operation time; with ``paced=False`` it only takes
    their wall time (``paced_s`` is then ``raw_s``) and runs no probe."""

    def __init__(self, paced=True):
        self.paced = paced
        self.probe_s = []          # every probe time, in order
        self._left = PROBE_EVERY_S  # operation time until the next probe
        self._span = None
        self._t0 = None

    def _probe(self):
        t0 = time.perf_counter()
        probe()
        self.probe_s.append(time.perf_counter() - t0)

    def _slice(self, until):
        dt = until - self._t0
        self._span.raw_s += dt
        self._span.paced_s += dt * PROBE_REF_S / statistics.median(
            self.probe_s[-PROBE_WINDOW:])

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self._probe()
        self._slice(t)
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self):
        """Time the block; the Span is filled in when the block ends."""
        if not self.paced:
            span = Span()
            t0 = time.perf_counter()
            try:
                yield span
            finally:
                span.raw_s = span.paced_s = time.perf_counter() - t0
            return
        if not self.probe_s:
            self._probe()
        self._span = span = Span()
        old = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._left, PROBE_EVERY_S)
        try:
            yield span
        finally:
            self._left = (signal.setitimer(signal.ITIMER_REAL, 0)[0]
                          or PROBE_EVERY_S)
            # from here on, a tick still pending finds the old handler and
            # is dropped
            signal.signal(signal.SIGALRM, old)
            # the tail since the last probe is paced by the last probes
            self._slice(time.perf_counter())
            self._span = None
