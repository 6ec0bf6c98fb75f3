"""A fixed reference computation that measures how fast the machine runs
the interpreter right now.

A shared host slows the benchmark down for minutes at a time, by as much
as the change a benchmark must detect. While the workload runs, `Sampler`
interrupts it on a timer and runs this computation for a fixed share of
the time. `run.py` scales every time it reports by `NOMINAL_S` over the
reference's mean time, so that a run on a slow stretch of the host and one
on a fast stretch read alike.

The computation is the benchmark's own code, not the package's, so no
change to the package moves it. It mixes what the package spends its time
on: exact elimination over `Fraction` and over the integers mod 5 behind a
small wrapper class with arithmetic dunders, on a fixed sparse matrix.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# The usual mean seconds of one `sample()` on the shared 2-core x86_64 host
# (CPython 3.11) the benchmark was defined on; reported times are seconds
# at that speed.
NOMINAL_S = 0.017
ROWS, COLS, P = 14, 18, 5


def _matrix():
    """A fixed sparse integer matrix from a linear congruential stream."""
    x, rows = 12345, []
    for _ in range(ROWS):
        row = []
        for _ in range(COLS):
            x = (1103515245 * x + 12345) % 2**31
            row.append((x >> 16) % 7 - 3 if (x >> 8) % 3 == 0 else 0)
        rows.append(row)
    return rows


MATRIX = _matrix()


class _Mod:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % P

    def __sub__(self, other):
        return _Mod(self.v - other.v)

    def __mul__(self, other):
        return _Mod(self.v * other.v)

    def inverse(self):
        return _Mod(pow(self.v, P - 2, P))

    def __bool__(self):
        return self.v != 0


def _rank(rows, make, inverse):
    rows = [[make(x) for x in row] for row in rows]
    rank = 0
    for col in range(COLS):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = inverse(rows[rank][col])
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _fraction_inverse(x):
    return 1 / x


def _ranks():
    return _rank(MATRIX, Fraction, _fraction_inverse), _rank(MATRIX, _Mod, _Mod.inverse)


RANKS = _ranks()


def sample():
    """Seconds taken by one pass of the reference computation."""
    t0 = perf_counter()
    ranks = _ranks()
    seconds = perf_counter() - t0
    if ranks != RANKS:
        raise AssertionError(f"reference ranks {ranks}, want {RANKS}")
    return seconds


class Sampler:
    """Inside `with`, reference samples interrupt the program on a wall-clock
    timer and take `share` of the time: after a sample of s seconds the
    next one is due s * (1 - share) / share later. So the samples spread
    evenly over the run, also inside a single long instance. `spent` is the
    time taken by the interruptions; timings of the program subtract it.
    """

    def __init__(self, share):
        self.gap = (1 - share) / share
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _fire(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(sample())
        signal.setitimer(signal.ITIMER_REAL, self.gap * self.samples[-1])
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.gap * NOMINAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
