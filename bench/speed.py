"""Timings corrected for the momentary speed of a shared processor.

On a shared host the core this benchmark runs on changes speed from one
fraction of a second to the next, as other tenants load the same physical
core: the same Python code takes about 1.7 times as long in a slow spell as
in a fast one, and the share of slow spells drifts over minutes. A timing
averaged over a run then measures the host as much as the program.

``SpeedSampler`` measures that speed while the program runs. Every
``INTERVAL`` seconds a ``SIGALRM`` handler runs ``reference``, a fixed
branch-and-bound search over an 18-vertex bitmask graph, the same kind of
interpreted work the program does, and records how long it took; garbage
collection is held off meanwhile, so it lands in the program's time. The
speed over a timed window is the mean of ``NOMINAL_S / duration`` over the
samples taken in it or within ``PAD`` seconds of it. A corrected time is the
window's time, less the handler's own time in it, times that speed: the
time the work would take on a processor that runs the reference search in
``NOMINAL_S`` seconds. In one process running the same suite for four
minutes, the corrected times varied by 1.6% (coefficient of variation)
where the raw times varied by 12%. Work on larger data slows somewhat more
than the reference in the slowest spells, so some drift remains.

``NOMINAL_S`` is a fixed constant, not calibrated per run: the fastest
moments of a run are rarer in a slow spell, so a per-run calibration would
bring back the drift it is meant to remove.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

INTERVAL = 0.03
# Duration of ``reference`` that counts as speed 1. On the shared 2-core Xeon
# host with Python 3.11.7 the baseline was recorded on, the search took about
# 0.42 ms in a fast spell and 0.75 ms in a slow one.
NOMINAL_S = 0.0005
# Samples this close to a timed window count towards its speed, so that
# windows shorter than ``INTERVAL`` have samples too. Over the passes of one
# run, an operation's corrected time varied least with this padding.
PAD = 0.1


def _reference_graph(n: int = 18, p: float = 0.6) -> tuple[int, ...]:
    rng = random.Random("speed-reference")
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


_ROWS = _reference_graph()
_ORDER = tuple(sorted(range(len(_ROWS)), key=lambda v: (_ROWS[v].bit_count(), v)))


def reference(size: int = 6) -> int:
    """Fewest edges inside a ``size``-subset of the reference graph, by
    branch and bound: about 0.5 ms of recursion, bit operations and small
    sorts at full speed."""
    rows, order, n = _ROWS, _ORDER, len(_ROWS)
    best = [n * n]

    def descend(i: int, k: int, cur: int, chosen: int) -> None:
        if cur >= best[0]:
            return
        if k == size:
            best[0] = cur
            return
        if n - i < size - k:
            return
        margins = sorted((rows[order[j]] & chosen).bit_count() for j in range(i, n))
        if cur + sum(margins[: size - k]) >= best[0]:
            return
        v = order[i]
        descend(i + 1, k + 1, cur + (rows[v] & chosen).bit_count(), chosen | 1 << v)
        descend(i + 1, k, cur, chosen)

    descend(0, 0, 0, 0)
    return best[0]


class SpeedSampler:
    """Samples the processor's speed from a timer signal while it is entered.

    ``starts`` and ``durations`` hold, per sample, when the reference search
    began and how long it took, in ``time.perf_counter`` seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return self.durations[lo:hi]

    def busy(self, start: float, end: float) -> float:
        """Seconds the sampler itself took between ``start`` and ``end``."""
        return sum(self._window(start, end))

    def speed(self, start: float, end: float) -> float:
        """Mean speed over the samples taken within ``PAD`` of the window;
        1 when there are none."""
        durations = self._window(start - PAD, end + PAD)
        return statistics.fmean(NOMINAL_S / d for d in durations) if durations else 1.0

    def corrected(self, start: float, end: float) -> float:
        """The window's time less the sampler's own, at nominal speed."""
        return (end - start - self.busy(start, end)) * self.speed(start, end)
