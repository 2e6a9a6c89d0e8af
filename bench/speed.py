"""Machine-speed probe: puts timings taken on a shared host on one scale.

On a shared 2-CPU cloud VM the same pure-Python loop was measured running
20-40% slower for stretches of ten seconds or more, and jittering by ~15%
from one second to the next, with no steal time reported.  Raw wall times of
one workload then spread by 25-30% between runs, whatever the program does.
In a 160 s test that alternated a fixed qsusy evaluation with slices of the
loop below, the cost per evaluation over 10 s windows spread 0.11 raw and
0.05 scaled (spread: quartile distance over median).

``SpeedProbe`` times a fixed pure-Python loop (``calibration_slice``, which
calls no qsusy code, so no change to the program can move it) every
``PERIOD_S`` seconds from a SIGALRM handler in the measured process; no
thread or process is added.  For a window of the pass, ``window`` returns the
raw time less the handler's own time, and the scale ``REFERENCE_SLICE_S`` ÷
mean slice time in that window.  Raw time times scale is the time the work
would have taken had every slice run at the reference speed.
"""

from __future__ import annotations

import signal
import time

SLICE_ITERATIONS = 15_000
PERIOD_S = 0.2
# Median slice time on the machine that recorded baseline.json (2 CPUs,
# Python 3.11.7); scaled times equal raw times at that speed.
REFERENCE_SLICE_S = 0.0042


def calibration_slice(n: int = SLICE_ITERATIONS) -> float:
    """Time one run of a fixed loop of float arithmetic and dict stores."""
    t = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(n):
        x = i * 0.37
        acc += x * x % 11.0
        table[i & 63] = acc
    return time.perf_counter() - t


class SpeedProbe:
    """Samples calibration slices while active, as a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        calibration_slice()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(raw seconds in [start, end] minus probe time, scale for that window)."""
        inside = [d for s, d in self.samples if start <= s < end]
        raw = end - start - sum(inside)
        if not inside:
            # a window shorter than one period: use every sample of the pass
            inside = [d for _, d in self.samples] or [calibration_slice()]
        return raw, REFERENCE_SLICE_S / (sum(inside) / len(inside))
