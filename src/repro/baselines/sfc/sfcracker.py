"""SFCracker: database cracking lifted to spatial data via the Z-curve.

The paper's first incremental strawman (Section 3.1).  The multi-
dimensional data is mapped to one dimension (Z-order codes), then queries
crack the code array exactly like relational database cracking:

* the **first query** pays for computing every object's Z-code (the paper
  measures this at 12.9% of SFC's total pre-processing, growing to 43%
  once the first query's own cracks are added);
* each query is decomposed into many tightly covering 1-d intervals
  (~197 on average in the paper) and the array is cracked at *every*
  interval boundary — the expensive incremental strategy that makes
  SFCracker lose to its static counterpart after only ~13 queries.

The cracker index (piece table) is the classic sorted-boundaries
structure: piece ``i`` spans positions ``[positions[i], positions[i+1])``
and holds codes in ``[bounds[i], bounds[i+1])``, unsorted within.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.baselines.sfc.zorder import (
    PAPER_BITS_PER_DIM,
    ZGrid,
    adaptive_min_size,
    zrange_decompose,
)
from repro.core.cracking import crack_values
from repro.datasets.store import BoxStore
from repro.geometry.box import Box
from repro.index.base import SpatialIndex
from repro.queries.query import Query, QueryPlan
from repro.util.arrays import gather_ranges


class SFCrackerIndex(SpatialIndex):
    """Incremental Z-order cracker (the paper's "SFCracker").

    Parameters
    ----------
    store:
        Backing data array (referenced; the cracker permutes its own
        parallel code/row arrays, initialized lazily by the first query).
    universe:
        Space mapped onto the Z-grid.
    bits:
        Bits per dimension (paper: 10).
    """

    name = "SFCracker"

    def __init__(
        self,
        store: BoxStore,
        universe: Box,
        bits: int = PAPER_BITS_PER_DIM,
    ) -> None:
        super().__init__(store)
        self._grid = ZGrid(universe, bits)
        self._codes: np.ndarray | None = None
        self._rows: np.ndarray | None = None
        # Piece table sentinels cover the whole code domain.
        self._bounds: list[int] = []
        self._positions: list[int] = []

    def build(self) -> None:
        """No-op — code computation deliberately happens in the first query."""
        self._built = True

    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """First-query transformation of all data to the 1-d domain."""
        centers = (self._store.lo + self._store.hi) * 0.5
        self._codes = self._grid.codes_of(centers)
        self._rows = np.arange(self._store.n, dtype=np.int64)
        # Charge the whole-dataset transformation pass to the first query,
        # exactly as the paper does (Section 6.3: 12.9% of SFC's total
        # pre-processing happens inside SFCracker's first query).
        self.stats.rows_reorganized += self._store.n
        top = 1 << (self._grid.bits * self._store.ndim)
        self._bounds = [0, top]
        self._positions = [0, self._store.n]

    def _crack_to(self, code: int) -> int:
        """Position splitting codes ``< code`` from codes ``>= code``.

        Cracks the containing piece if the boundary is new; afterwards the
        piece table records it so repeats are pure lookups.
        """
        idx = bisect_right(self._bounds, code) - 1
        if self._bounds[idx] == code:
            return self._positions[idx]
        begin = self._positions[idx]
        end = self._positions[idx + 1]
        split = crack_values(self._codes, self._rows, begin, end, code)
        self.stats.cracks += 1
        self.stats.rows_reorganized += end - begin
        self._bounds.insert(idx + 1, code)
        self._positions.insert(idx + 1, split)
        return split

    def _intervals_for(self, query: Query) -> list[tuple[int, int]]:
        """Code intervals tightly covering the (extended) query window."""
        margin = self._store.max_extent / 2.0
        cell_lo = self._grid.cells_of((query.lo - margin)[None, :])[0]
        cell_hi = self._grid.cells_of((query.hi + margin)[None, :])[0]
        min_size = adaptive_min_size(cell_lo, cell_hi)
        return zrange_decompose(
            cell_lo, cell_hi, self._store.ndim, self._grid.bits, min_size
        )

    def _candidates(self, query: Query) -> np.ndarray:
        if self._codes is None:
            self._initialize()
        intervals = self._intervals_for(query)
        self.stats.nodes_visited += len(intervals)
        starts = np.empty(len(intervals), dtype=np.int64)
        ends = np.empty(len(intervals), dtype=np.int64)
        for i, (lo, hi) in enumerate(intervals):
            # One crack per interval boundary — the multiple cracks per
            # query that Section 3.1 blames for SFCracker's overhead.
            starts[i] = self._crack_to(lo)
            ends[i] = self._crack_to(hi + 1)
        rows = self._rows[gather_ranges(starts, ends)]
        self.stats.objects_tested += rows.size
        return rows

    def _plan(self, query: Query) -> QueryPlan:
        """Intervals plus the rows the current piece table would gather.

        Planning never cracks, so candidate counts come from the pieces
        *spanning* each interval (the rows a query would pay to narrow);
        execution cracks them tighter, hence ``exact=False``.  Before
        the first query the whole array is one piece.
        """
        intervals = self._intervals_for(query)
        if self._codes is None:
            return QueryPlan(
                index=self.name,
                query=query,
                nodes=len(intervals),
                candidates=self._store.n,
                exact=False,
            )
        candidates = 0
        for lo, hi in intervals:
            left = bisect_right(self._bounds, lo) - 1
            right = bisect_right(self._bounds, hi) - 1
            candidates += self._positions[right + 1] - self._positions[left]
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=len(intervals),
            candidates=candidates,
            exact=False,
        )

    # ------------------------------------------------------------------
    @property
    def piece_count(self) -> int:
        """Number of pieces in the cracker index (1 before any query)."""
        if not self._bounds:
            return 1
        return len(self._bounds) - 1

    def memory_bytes(self) -> int:
        """Code/row arrays plus the piece table."""
        if self._codes is None:
            return 0
        return int(
            self._codes.nbytes
            + self._rows.nbytes
            + 16 * len(self._bounds)
        )

    def validate_pieces(self) -> None:
        """Assert the cracker-index invariant (test/debug hook):
        piece ``i`` holds exactly the codes in ``[bounds[i], bounds[i+1])``."""
        if self._codes is None:
            return
        assert self._positions[0] == 0 and self._positions[-1] == self._store.n
        assert all(
            a < b for a, b in zip(self._bounds, self._bounds[1:])
        ), "piece bounds not strictly increasing"
        assert all(
            a <= b for a, b in zip(self._positions, self._positions[1:])
        ), "piece positions not monotone"
        for i in range(len(self._bounds) - 1):
            piece = self._codes[self._positions[i] : self._positions[i + 1]]
            assert np.all(piece >= self._bounds[i]), "code below piece bound"
            assert np.all(piece < self._bounds[i + 1]), "code above piece bound"
