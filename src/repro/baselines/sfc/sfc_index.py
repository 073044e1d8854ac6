"""Static SFC index: sort once by Z-order code, binary search per interval.

The static counterpart of SFCracker (Section 6.1): pre-processing computes
every object's Z-code (by its center cell) and fully sorts; each query is
decomposed into tightly covering code intervals, each answered with binary
search over the sorted codes, with an exact intersection filter on the
gathered candidates.  Because objects are represented by their centers,
query windows are extended by half the maximum object extent, just like
the query-extension grid.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.sfc.zorder import (
    PAPER_BITS_PER_DIM,
    ZGrid,
    adaptive_min_size,
    zrange_decompose,
)
from repro.datasets.store import BoxStore
from repro.errors import QueryError
from repro.geometry.box import Box
from repro.index.base import IndexStats, SpatialIndex
from repro.queries.query import Query, QueryPlan, QueryResult
from repro.util.arrays import gather_ranges


class SFCIndex(SpatialIndex):
    """Fully sorted Z-order index (the paper's "SFC").

    Parameters
    ----------
    store:
        Backing data array (referenced; a sorted row permutation is kept
        internally).
    universe:
        Space mapped onto the Z-grid.
    bits:
        Bits per dimension (paper: 10).
    """

    name = "SFC"

    def __init__(
        self,
        store: BoxStore,
        universe: Box,
        bits: int = PAPER_BITS_PER_DIM,
    ) -> None:
        super().__init__(store)
        self._grid = ZGrid(universe, bits)
        self._sorted_codes: np.ndarray | None = None
        self._sorted_rows: np.ndarray | None = None

    @property
    def grid(self) -> ZGrid:
        """The shared coordinate-to-cell mapping."""
        return self._grid

    def build(self) -> None:
        """Compute all codes and fully sort — the static pre-processing."""
        if self._built:
            return
        centers = (self._store.lo + self._store.hi) * 0.5
        codes = self._grid.codes_of(centers)
        order = np.argsort(codes, kind="stable")
        self._sorted_codes = codes[order]
        self._sorted_rows = order.astype(np.int64)
        # Build cost (comparison model): one linear code-computation pass
        # plus a full sort of the codes.
        n = self._store.n
        self.build_work = n + int(n * np.log2(max(n, 2)))
        self._built = True

    def _intervals_for(self, query: Query) -> list[tuple[int, int]]:
        """Code intervals tightly covering the (extended) query window."""
        margin = self._store.max_extent / 2.0
        cell_lo = self._grid.cells_of((query.lo - margin)[None, :])[0]
        cell_hi = self._grid.cells_of((query.hi + margin)[None, :])[0]
        min_size = adaptive_min_size(cell_lo, cell_hi)
        return zrange_decompose(
            cell_lo, cell_hi, self._store.ndim, self._grid.bits, min_size
        )

    def _execute_batch(self, queries: list[Query]) -> list[QueryResult]:
        """Amortize the binary searches: two ``searchsorted`` calls cover
        every interval of every query, and the refine runs in stacked
        kernels (one per predicate present) over the whole batch."""
        if not self._built:
            raise QueryError("SFC index queried before build()")
        t0 = time.perf_counter()
        all_lo: list[int] = []
        all_hi: list[int] = []
        interval_counts: list[int] = []
        for q in queries:
            intervals = self._intervals_for(q)
            interval_counts.append(len(intervals))
            all_lo.extend(iv[0] for iv in intervals)
            all_hi.extend(iv[1] + 1 for iv in intervals)
        starts = np.searchsorted(
            self._sorted_codes, np.array(all_lo, dtype=np.uint64), side="left"
        )
        ends = np.searchsorted(
            self._sorted_codes, np.array(all_hi, dtype=np.uint64), side="left"
        )
        rows = self._sorted_rows[gather_ranges(starts, ends)]
        # Intervals were emitted in query order, so the gathered rows are
        # contiguous per query; split them at the per-query totals.
        spans = ends - starts
        offsets = np.concatenate(([0], np.cumsum(interval_counts)))
        rows_list: list[np.ndarray] = []
        per_stats: list[IndexStats] = []
        pos = 0
        for i, q in enumerate(queries):
            width = int(spans[offsets[i] : offsets[i + 1]].sum())
            rows_list.append(rows[pos : pos + width])
            pos += width
            self.stats.nodes_visited += interval_counts[i]
            self.stats.objects_tested += width
            per_stats.append(
                IndexStats(
                    nodes_visited=interval_counts[i], objects_tested=width
                )
            )
        payloads = self._refine_stacked(queries, rows_list)
        return self._wrap_batch(
            queries, payloads, per_stats, time.perf_counter() - t0
        )

    def _plan(self, query: Query) -> QueryPlan:
        """Intervals and candidate rows the query would touch."""
        if not self._built:
            raise QueryError("SFC index planned before build()")
        intervals = self._intervals_for(query)
        bounds_lo = np.array([iv[0] for iv in intervals], dtype=np.uint64)
        bounds_hi = np.array([iv[1] + 1 for iv in intervals], dtype=np.uint64)
        starts = np.searchsorted(self._sorted_codes, bounds_lo, side="left")
        ends = np.searchsorted(self._sorted_codes, bounds_hi, side="left")
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=len(intervals),
            candidates=int((ends - starts).sum()),
            exact=True,
        )

    def memory_bytes(self) -> int:
        """Sorted code + row arrays."""
        if not self._built:
            return 0
        return int(self._sorted_codes.nbytes + self._sorted_rows.nbytes)
