"""The host's speed, read while the benchmark's work runs.

On a shared host the same code runs at two or more speeds, switching within
tenths of a second, and the share of time spent at each drifts over minutes.
A ``Speedometer`` times a short fixed piece of pure-Python work (a "reading":
integer arithmetic, tuple-keyed dict lookups, set membership, method calls,
and building and sorting small tuples and dicts, about 1 ms) every
``INTERVAL_S`` from a SIGALRM handler, so readings are taken in the middle of
long calls too.  Every object a reading builds is freed before it ends, and
the cyclic collector is off while it runs, so readings do not move the
collector's runs into or out of the work they measure.

``over(t0, t1)`` then gives, for a stretch of work timed with
``perf_counter``, the seconds the readings themselves took inside it (to be
subtracted) and the mean reading around it (to scale the stretch to a
reference speed).

Until ``start()`` arms the timer, readings are taken only by ``read()``.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from statistics import fmean
from time import perf_counter

INTERVAL_S = 0.02


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def f(self, x: int) -> int:
        return self.a + x * self.b


_TABLE = {(i, i * 7 % 97): i for i in range(8000)}
_KEYS = list(_TABLE)[::5]
_SEEN = set(_KEYS[::2])
_NODES = [_Node(i, i % 5) for i in range(600)]


def reference_work() -> int:
    s = 0
    for i in range(3000):
        s += i * i % 7
    for k in _KEYS:
        s += _TABLE[k]
    for k in _KEYS:
        s += k in _SEEN
    for n in _NODES:
        s += n.f(3)
    for i in range(700):
        t = (i, i + 1, i % 7)
        d = {t: i, i: t}
        s += len(d) + t[2]
    pairs = [(i % 13, i) for i in range(300)]
    pairs.sort()
    return s + pairs[0][1]


class Speedometer:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.readings: list[float] = []
        self._busy = False

    def read(self, *_: object) -> None:
        if self._busy:  # the timer fired inside a reading: skip this one
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t = perf_counter()
            reference_work()
            end = perf_counter()
        except RecursionError:  # the timer fired at the bottom of a deep stack
            return
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.starts.append(t)
        self.readings.append(end - t)
        self.ends.append(perf_counter())

    def start(self) -> None:
        self.read()
        signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.read()

    def over(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds of readings inside [t0, t1], mean reading around it).

        The mean covers the readings that started inside the stretch, the
        last one before it and the first one after it.  Call it once a
        reading after ``t1`` has been taken."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        busy = sum(
            min(e, t1) - max(s, t0)
            for s, e in zip(self.starts[max(0, lo - 1) : hi], self.ends[max(0, lo - 1) : hi])
            if e > t0
        )
        return busy, fmean(self.readings[max(0, lo - 1) : hi + 1])
