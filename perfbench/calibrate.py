"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark was defined on (a 2-CPU VM, Python 3.11)
switches between two speeds about 1.6 times apart, several times a
second and for every process alike, and the share of time it spends in
each drifts over minutes; the median wall time of a 20 s run moved by
about 20 % from run to run.  While work is timed, :class:`SpeedSampler`
therefore interrupts it every ``INTERVAL_S`` on a wall-clock timer to run
this fixed pure-Python loop, and rescales each stretch of work between
two samples by ``REFERENCE_S / (mean calibration time of the two)``.  A
timing then reads as seconds on that machine at its median speed, and
the speed swings cancel.  The time of the samples themselves is left out.

The loop does the kind of work traceforge does (modular elimination on
lists, tuple keys in a dict) and never calls traceforge, so a change to
the program cannot change the yardstick.
"""

from __future__ import annotations

import signal
from bisect import bisect_right
from time import perf_counter

# About the median time of one calibration on the reference machine, whose
# samples fall in two clusters near 0.70 ms and 1.15 ms.
REFERENCE_S = 0.001
KERNEL_REPEATS = 8
# Wall time between two samples inside a pass.  The speed changes within
# tenths of a second, so samples are short and frequent; they cost about
# 2 % of a pass.
INTERVAL_S = 0.05

_P = 7
_N = 20


def _kernel() -> int:
    rows = [[(i * 7 + j * 3 + i * j) % _P for j in range(_N)] for i in range(_N)]
    seen = {}
    r = 0
    for c in range(_N):
        pr = next((i for i in range(r, _N) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        k = pow(rows[r][c], -1, _P)
        rows[r] = [k * x % _P for x in rows[r]]
        for i in range(_N):
            if i != r and rows[i][c]:
                k = rows[i][c]
                rows[i] = [(x - k * y) % _P for x, y in zip(rows[i], rows[r])]
        seen[tuple(rows[r])] = r
        r += 1
    return r


def calibrate() -> tuple[float, float]:
    """Run the loop once; returns its (start, end) on the perf_counter clock."""
    t0 = perf_counter()
    for _ in range(KERNEL_REPEATS):
        _kernel()
    return t0, perf_counter()


class SpeedSampler:
    """Calibrates on entry, every INTERVAL_S of wall time, and on exit.

    The samples run in a SIGALRM handler, between two bytecodes of
    whatever the main thread is doing; use it from the main thread only.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        self.marks.append(calibrate())

    def __enter__(self):
        self.marks.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.marks.append(calibrate())

    def _segments(self) -> list[tuple[float, float, float]]:
        """(start, end, mean calibration seconds) of each stretch between samples."""
        m = self.marks
        return [(m[k][1], m[k + 1][0], (m[k][1] - m[k][0] + m[k + 1][1] - m[k + 1][0]) / 2)
                for k in range(len(m) - 1)]

    def work_s(self, lo: float = float("-inf"), hi: float = float("inf")) -> float:
        """Wall time in [lo, hi] outside the samples."""
        return sum(max(0.0, min(hi, b) - max(lo, a)) for a, b, _ in self._segments())

    def scaled_s(self, lo: float = float("-inf"), hi: float = float("inf")) -> float:
        """Like :meth:`work_s`, each stretch rescaled to the reference speed."""
        segments = self._segments()
        first = max(0, bisect_right([a for a, _, _ in segments], lo) - 1)
        total = 0.0
        for a, b, c in segments[first:]:
            if a >= hi:
                break
            total += max(0.0, min(hi, b) - max(lo, a)) * REFERENCE_S / c
        return total
