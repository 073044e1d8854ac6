"""A fixed piece of work timed beside every round, to cancel machine drift.

The reference box does not run at one speed: the same round of the same
seed takes 1.6 s in one minute and 1.95 s in the next, for tens of
seconds at a time, with no steal time to subtract.  A run of ten seconds
sees one or two such moods, so raw times spread by 10-20 % run to run,
wider than any bound worth gating on.

So each round is bracketed by two bursts of work that belongs to the
benchmark and never changes: a partition-and-gather over a 12 MB array
(what cracking does to memory) and an interpreter loop over small numpy
calls (what the slice walk does to the interpreter).  The round's speed
factor is its bursts' time over :data:`REFERENCE_BURST_S`, and every
time of that round is divided by it.  Reported times are therefore
"seconds on the reference box in its fast mood"; a change to the program
moves them, a mood of the machine mostly does not.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: One burst on the reference box in its fast mood (2 cores, see README).
REFERENCE_BURST_S = 0.0600

_UNITS = 4


class Calibrator:
    """Owns the burst's arrays; ``burst()`` returns its wall-clock."""

    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self._big = gen.uniform(size=(500_000, 3))
        self._lo = gen.uniform(size=(48, 3))
        self._hi = self._lo + 0.1
        self._window = np.array([0.45, 0.45, 0.45])

    def burst(self) -> float:
        big, lo, hi, window = self._big, self._lo, self._hi, self._window
        t0 = perf_counter()
        for unit in range(_UNITS):
            mask = big[:, unit % 3] < 0.5
            order = np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)])
            big[order].sum()
            hits = 0
            for _ in range(600):
                inside = np.all(lo <= window + 0.1, axis=1) & np.all(hi >= window, axis=1)
                hits += int(inside.sum())
        return perf_counter() - t0
