"""A machine-speed probe, so that times taken on a shared machine can be compared.

Other tenants of a shared host slow every op, by up to half again, and the
machine switches between a fast and a slow state within a second. The probe
times a fixed piece of the benchmark's own Python work, which never changes
with the program under test: graph building, bit operations, a JSON round
trip, a small backtracking search and reads at new, scattered places of a
4 MiB table, the kinds of work the program does. A 10 ms interval timer runs
it, between ops and during them. Each time the garbage collector is off and
the work runs once untimed first, so that the timed run finds its code and
small data in the cache whatever the op left there. An op's time, less the
time the probe took during it, is then scaled by
``REFERENCE_S / median probe time`` over the op's interval: the time the op
would have taken had the machine run the probe in ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import oracle

__all__ = ["Probe", "REFERENCE_S"]

# Roughly the probe's median time on the machine this was written on (Intel
# Xeon at 2.1 GHz, Python 3.11); it only sets the scale.
REFERENCE_S = 250e-6
# How far before an op's start the probe that precedes it may begin.
LEAD_S = 0.001
PERIOD_S = 0.01
# An op is scaled by at least this many probes, the nearest in time.
MIN_SAMPLES = 24

_U = [str(i) for i in range(1, 7)]
_W = [str(i) for i in range(7, 13)]
_EDGES = ([(a, b) for a in _U for b in _W if int(a) * int(b) % 5 < 2]
          + [(b, a) for a in _U for b in _W if (int(a) + int(b)) % 7 == 0])


# Three symmetric edges: a small search tree for the backtracking part.
_MATCHING = [("1", "4"), ("4", "1"), ("2", "5"), ("5", "2"), ("3", "6"), ("6", "3")]
_OUT = {v: frozenset(h for t, h in _MATCHING if t == v) for v in "123456"}
_IN = {v: frozenset(t for t, h in _MATCHING if h == v) for v in "123456"}
_CELLS = {**{v: list("123") for v in "123"}, **{v: list("456") for v in "456"}}


def _count_maps(order: list[str], cells: dict[str, list[str]]) -> int:
    """Colour-preserving automorphisms of ``_MATCHING`` by backtracking."""
    assigned: list[tuple[str, str]] = []
    used: set[str] = set()

    def extend(i: int) -> int:
        if i == len(order):
            return 1
        v, found = order[i], 0
        for c in cells[v]:
            if c in used or any((a in _OUT[v]) != (b in _OUT[c]) or (a in _IN[v]) != (b in _IN[c])
                                for a, b in assigned):
                continue
            assigned.append((v, c))
            used.add(c)
            found += extend(i + 1)
            assigned.pop()
            used.discard(c)
        return found

    return extend(0)


# A 4 MiB table read at pseudo-random places, new ones on every run: the
# memory traffic that slows the group closures and orientation checks, which
# build hundreds of thousands of objects, when other tenants load the machine.
_TABLE = bytearray(range(256)) * (1 << 14)
_MASK = len(_TABLE) - 1
_walk_at = 12345


def _memory_walk(steps: int = 300) -> int:
    global _walk_at
    at, total = _walk_at, 0
    for _ in range(steps):
        at = (at * 1103515245 + 12345) & _MASK
        total += _TABLE[at]
    _walk_at = at
    return total


def _reference_work() -> None:
    g = oracle.Graph(_U, _W, _EDGES)
    g.n1()
    g.n2()
    g.n3()
    g.thin()
    json.loads(json.dumps({"edges": sorted(g.edges)}))
    _count_maps(list("142536"), _CELLS)
    _memory_walk()


class Probe:
    """Probe samples (start, seconds), kept in time order, and the time spent probing."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.probing_s = 0.0
        self._busy = False

    def __call__(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        begin = perf_counter()
        try:
            _reference_work()
            start = perf_counter()
            _reference_work()
            self.seconds.append(perf_counter() - start)
            self.starts.append(start)
        finally:
            self.probing_s += perf_counter() - begin
            if enabled:
                gc.enable()
            self._busy = False

    @contextmanager
    def sampling(self):
        """Probe every ``PERIOD_S`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """The factor that converts a time measured over [start, end] to reference speed.

        It takes the median of the probes taken right before and during the
        interval, widened on both sides to at least ``MIN_SAMPLES`` probes.
        """
        lo = bisect.bisect_left(self.starts, start - LEAD_S)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo = max(0, lo - 1)
            hi = min(len(self.starts), hi + 1)
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])
