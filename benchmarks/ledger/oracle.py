"""Brute-force reference for query results, independent of the program.

A shadow copy of the generated boxes in plain numpy arrays.  The
benchmark hands out identifiers itself (the initial rows are ``0..n-1``,
inserted rows continue the sequence), so an object's id *is* its row
here: inserts write the next rows, deletes clear a liveness bit, and a
query is the ``intersects`` predicate tested against every live row.
"""

from __future__ import annotations

import numpy as np


class Oracle:
    """The live ``(id, box)`` set, answered by exhaustive test."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        self._lo = lo.copy()
        self._hi = hi.copy()
        self._live = np.ones(lo.shape[0], dtype=bool)
        self._n = lo.shape[0]

    @property
    def next_id(self) -> int:
        """The identifier the next inserted row must carry."""
        return self._n

    def insert(self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray) -> None:
        k = ids.size
        if ids[0] != self._n or ids[-1] != self._n + k - 1:
            raise ValueError("oracle ids must continue the row sequence")
        if self._n + k > self._live.size:
            grow = max(k, self._live.size // 4)
            pad = np.zeros((grow, self._lo.shape[1]))
            self._lo = np.concatenate([self._lo, pad])
            self._hi = np.concatenate([self._hi, pad])
            self._live = np.concatenate([self._live, np.zeros(grow, dtype=bool)])
        rows = slice(self._n, self._n + k)
        self._lo[rows] = lo
        self._hi[rows] = hi
        self._live[rows] = True
        self._n += k

    def delete(self, ids: np.ndarray) -> None:
        if not self._live[ids].all():
            raise ValueError("oracle asked to delete a row that is not live")
        self._live[ids] = False

    def query(self, win_lo: np.ndarray, win_hi: np.ndarray) -> np.ndarray:
        """Sorted ids of live boxes intersecting the closed window."""
        n = self._n
        # First dimension over every row, the rest over its survivors:
        # the same exhaustive predicate at a third of the memory traffic.
        rows = np.flatnonzero(
            (self._lo[:n, 0] <= win_hi[0])
            & (self._hi[:n, 0] >= win_lo[0])
            & self._live[:n]
        )
        keep = np.all(
            (self._lo[rows, 1:] <= win_hi[1:]) & (self._hi[rows, 1:] >= win_lo[1:]),
            axis=1,
        )
        return rows[keep]
