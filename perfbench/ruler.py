"""Host-speed normalization of the gated timings.

The hosts this benchmark runs on are shared: the speed of one CPU-bound
Python thread drifts by 20-60% within minutes.  Measured on a 2-vCPU
VM, a fixed 85 ms pure-Python loop had an inter-quartile spread of 0.13
of its median even when averaged over 8.5 s windows, and eval-warm's
wall-clock pass time varied with a spread of 0.15.  No statistic of a
10-second wall-clock run survives that.

So every run also times a fixed reference workload of the same kind as
the program's own work (dictionary, tuple and frozenset churn), at set-up
boundaries and every half second between answers, never inside a timed
region; after a long answer it takes the samples the answer displaced.
The *speed factor* is :data:`NOMINAL_S` divided by the median of some
reference samples: for an answer, the :data:`NEAREST` closest in time to
its midpoint; for a set-up or a unit of work, those taken during it (the
nearest, when fewer were).  A gated timing is reported at nominal speed:
a duration is multiplied by its factor, a rate divided by it.
Normalized this way, eval-warm's pass time varied with a spread of 0.03.
On a host where the reference takes exactly ``NOMINAL_S`` the figures
are plain wall-clock figures; standard error shows both.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import stats

#: The reference workload's duration at nominal speed (seconds).
NOMINAL_S = 0.020
#: Iterations of the reference loop (about ``NOMINAL_S`` at nominal speed).
ITERATIONS = 60_000
#: Wall time between two samples taken by :meth:`Ruler.tick`.
EVERY_S = 0.5
#: Most samples one :meth:`Ruler.tick` takes to catch up after a long
#: answer.
CATCH_UP = 8
#: Samples around a moment that give the host speed at that moment.
NEAREST = 4


def reference() -> float:
    """Seconds one run of the reference workload takes right now."""
    started = time.perf_counter()
    table = {}
    for i in range(ITERATIONS):
        key = (i % 977, i % 13)
        table[key] = table.get(key, 0) + 1
        frozenset((i, i + 1, i % 7))
    return time.perf_counter() - started


class Ruler:
    """Reference samples of one run, each with the moment it was taken."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._last = time.perf_counter() - EVERY_S

    def sample(self) -> None:
        """Time the reference workload once."""
        started = time.perf_counter()
        seconds = reference()
        self.samples.append((started + seconds / 2, seconds))
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Take a sample for every :data:`EVERY_S` passed since the last
        one (at most :data:`CATCH_UP`), so that a long answer, which
        cannot be interrupted, is followed by as many as it displaced."""
        owed = min(CATCH_UP, (time.perf_counter() - self._last) / EVERY_S)
        for _ in range(int(owed)):
            self.sample()

    def factor(self) -> float:
        """The speed factor over the whole run (below 1 on a slow host)."""
        return self._factor(self.samples)

    def factor_at(self, moment: float) -> float:
        """The factor from the :data:`NEAREST` samples closest in time."""
        if not self.samples:
            self.sample()
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - moment))[:NEAREST]
        return self._factor(nearest)

    def factor_over(self, start: float, end: float) -> float:
        """The factor from the samples taken between ``start`` and
        ``end``, or, when fewer than :data:`NEAREST`, at the midpoint."""
        inside = [sample for sample in self.samples if start <= sample[0] <= end]
        if len(inside) >= NEAREST:
            return self._factor(inside)
        return self.factor_at((start + end) / 2)

    def _factor(self, samples: List[Tuple[float, float]]) -> float:
        if not samples:
            self.sample()
            samples = self.samples
        return NOMINAL_S / stats.median([seconds for _, seconds in samples])
