"""QUASII's hierarchical slice structure (Section 5.1), stored as columns.

A *slice* is one node of the d-level hierarchy: a contiguous range of the
data array, tagged with the level (= dimension) it was produced at, a
minimum bounding box, and optional children refining it on the next
dimension.  Mirroring the paper:

* objects are assigned to slices by their **lower coordinate** on the
  level's dimension, so sibling slices partition their parent's rows into
  contiguous, lower-coordinate-ordered buckets;
* a slice's recorded MBB reflects the objects' **actual extents** — it is
  *open-ended* (±inf on dimensions not yet sliced) until the slice becomes
  fully refined at its level, at which point the exact full MBB is
  computed once;
* siblings are kept sorted so querying can binary-search the start slice.

The sort key is ``cut_lo`` — the lower bound of the slice's cracking
interval.  Sibling cut intervals tile the parent's key space, giving the
strict ordering invariant binary search needs even though recorded MBBs may
overlap (the paper handles the same overlap by extending the binary-search
range by the maximum slice extent).

There is no per-slice object: a :class:`SliceList` owns its siblings as
parallel columns (row ``i`` of every column is slice ``i``), so Algorithm
1 tests a whole sibling range with one masked comparison and maintenance
is array arithmetic.  The columns are the only representation: every
writer — here and in :mod:`repro.core.quasii` — writes them directly,
and quasii-lint (QL009) keeps all other modules read-only.
"""

from __future__ import annotations

import sys
from typing import Sequence

import numpy as np

from repro.datasets.store import BoxStore

#: One refinement product: ``(cut_lo, begin, end, dim_lo, dim_hi)`` — the
#: cut bound, the row range, and the exact extent on the sliced dimension.
Piece = tuple[float, int, int, float, float]

#: The per-slice array columns of a :class:`SliceList` and their dtypes.
COLUMN_DTYPES = {
    "cut_lo": "f8", "begin": "i8", "end": "i8", "mbb_lo": "f8", "mbb_hi": "f8", "final": "?",
}


class SliceList:
    """One sorted sibling list — an ``S`` of Algorithm 1 — as columns.

    Attributes
    ----------
    level:
        Zero-based level/dimension (0 = x ... d-1 = bottom).
    cut_lo:
        ``float64[n]``, strictly increasing; ``-inf`` for the first
        sibling.  All lower-corner keys in slice ``i`` are
        ``>= cut_lo[i]`` and ``< cut_lo[i + 1]``.
    begin, end:
        ``int64[n]`` physical row ranges ``[begin, end)`` in the store;
        siblings are contiguous (``begin[i + 1] == end[i]``).
    mbb_lo, mbb_hi:
        ``float64[n, d]`` recorded bounding boxes; ``±inf`` on dimensions
        with no information yet (the paper's open-ended MBB).
    final:
        ``bool[n]``; True once the slice satisfies its level's threshold,
        its MBB row is then exact on every dimension.
    children:
        Per slice, the next-level :class:`SliceList`, or ``None`` until
        first descended into (Algorithm 1 creates a *default child*
        lazily).  Bottom-level lists keep no child column at all (``[]``),
        so walking the forest list by list never scans leaf slices.
    """

    __slots__ = ("level", *COLUMN_DTYPES, "children")

    def __init__(
        self,
        level: int,
        cut_lo: Sequence[float],
        begin: Sequence[int],
        end: Sequence[int],
        mbb_lo: np.ndarray,
        mbb_hi: np.ndarray,
    ) -> None:
        self.level = level
        self.cut_lo = np.array(cut_lo, dtype=np.float64)
        self.begin = np.array(begin, dtype=np.int64)
        self.end = np.array(end, dtype=np.int64)
        # Copies: a single box vector becomes the one row of a 1-slice list.
        self.mbb_lo = np.array(mbb_lo, dtype=np.float64, ndmin=2)
        self.mbb_hi = np.array(mbb_hi, dtype=np.float64, ndmin=2)
        n = self.cut_lo.size
        self.final = np.zeros(n, dtype=np.bool_)
        bottom = level + 1 >= self.mbb_lo.shape[1]
        self.children: list[SliceList | None] = [] if bottom else [None] * n

    @classmethod
    def from_pieces(
        cls,
        level: int,
        pieces: Sequence[Piece],
        parent_lo: np.ndarray,
        parent_hi: np.ndarray,
    ) -> SliceList:
        """Siblings refining one parent slice on dimension ``level``.

        Every piece inherits the parent's recorded bounds on the other
        dimensions and records its exact extent on the sliced one.
        """
        cut_lo, begin, end, dim_lo, dim_hi = zip(*pieces)
        mbb_lo = np.repeat(parent_lo[None, :], len(pieces), axis=0)
        mbb_hi = np.repeat(parent_hi[None, :], len(pieces), axis=0)
        mbb_lo[:, level] = dim_lo
        mbb_hi[:, level] = dim_hi
        return cls(level, cut_lo, begin, end, mbb_lo, mbb_hi)

    def __len__(self) -> int:
        return int(self.cut_lo.size)

    def child(self, index: int) -> SliceList | None:
        """Slice ``index``'s child list; None when absent or at the bottom."""
        return self.children[index] if self.children else None

    def probe(
        self,
        key_lo: float,
        key_hi: float,
        win_lo: np.ndarray,
        win_hi: np.ndarray,
        start: int | None = None,
    ) -> tuple[int, int, list[int]]:
        """Algorithm 1, Lines 2–5, for the whole list at once.

        Binary-searches both ends of the sibling range that can hold keys
        in the (already extended) interval ``[key_lo, key_hi]`` — from the
        last slice whose ``cut_lo <= key_lo`` (earlier siblings only hold
        smaller keys) up to the first whose ``cut_lo > key_hi`` — then
        tests the range's recorded MBBs against the raw window in one
        masked comparison (±inf bounds make unknown dimensions pass, so it
        never prunes a slice that could hold a result).  ``start`` pins the
        lower end instead: the walk re-entering at a position it spliced.
        Returns the tested range ``[i, j)`` and the hit indices, ascending.
        """
        i = start
        if i is None:
            i = max(0, int(self.cut_lo.searchsorted(key_lo, "right")) - 1)
        j = int(self.cut_lo.searchsorted(key_hi, "right"))
        mask = (self.mbb_lo[i:j] <= win_hi) & (self.mbb_hi[i:j] >= win_lo)
        hits: list[int] = (mask.all(axis=1).nonzero()[0] + i).tolist()
        return i, j, hits

    def replace(self, index: int, pieces: SliceList) -> None:
        """Splice ``pieces`` in place of slice ``index``, kept sorted
        (the paper's Lines 17–20); every column and the children move."""
        for name in COLUMN_DTYPES:
            old, new = getattr(self, name), getattr(pieces, name)
            setattr(self, name, np.concatenate((old[:index], new, old[index + 1 :])))
        self.children[index : index + 1] = pieces.children

    def select(self, rows: np.ndarray) -> None:
        """Keep only ``rows`` (ascending indices) of every column."""
        for name in COLUMN_DTYPES:
            setattr(self, name, getattr(self, name)[rows])
        if self.children:
            self.children = [self.children[i] for i in rows.tolist()]

    def finalize(self, store: BoxStore, tau: int, refresh: bool = False) -> None:
        """Mark slices holding at most ``tau`` rows final, with exact MBBs.

        The paper computes the full MBB "only when a slice is completely
        refined" — this is that moment.  ``refresh`` also recomputes the
        boxes of already-final slices (after a compaction dropped rows).
        """
        small = self.end - self.begin <= tau
        todo = (small if refresh else small & ~self.final).nonzero()[0]
        if todo.size:
            # Siblings are contiguous, so one reduceat over the rows from
            # the first to the last slice to finalize boxes them all.
            first, last = todo[0], todo[-1]
            rows = slice(self.begin[first], self.end[last])
            starts = self.begin[first : last + 1] - self.begin[first]
            lo = np.minimum.reduceat(store.lo[rows], starts, axis=0)
            hi = np.maximum.reduceat(store.hi[rows], starts, axis=0)
            self.mbb_lo[todo], self.mbb_hi[todo] = lo[todo - first], hi[todo - first]
        self.final |= small

    def memory_bytes(self) -> int:
        """Footprint of the columns plus the child-pointer list."""
        columns = sum(getattr(self, name).nbytes for name in COLUMN_DTYPES)
        return int(columns) + sys.getsizeof(self.children)
