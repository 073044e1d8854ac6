"""Uniform grid index with both object-assignment strategies (Section 3.2/6.2).

Space-oriented partitioning must decide where an object that overlaps
several cells lives:

* **replication** — the object is stored in *every* overlapping cell; the
  query must de-duplicate results, and big objects blow up memory.
* **query extension** — the object is stored only in the cell holding its
  *center*; to stay correct the query window is enlarged by half the
  maximum object extent per side, so more candidates are tested.

The paper's Figure 6a quantifies both penalties against the R-Tree;
Figure 6b shows the best cell count depends on data skew.  Both behaviours
are reproduced by this one class via the ``assignment`` switch.

The grid is static, as in the paper's evaluation: ``build()`` lays out
one CSR (cell offsets plus sorted row entries) over the store, which
never changes underneath it — a store mutated behind its back fails
the epoch check.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError, QueryError
from repro.geometry.box import Box
from repro.index.base import IndexStats, SpatialIndex
from repro.queries.query import Query, QueryPlan, QueryResult
from repro.util.arrays import gather_ranges

#: Assignment strategy names accepted by :class:`UniformGridIndex`.
ASSIGNMENTS = ("query_extension", "replication")


class UniformGridIndex(SpatialIndex):
    """A static uniform grid over the dataset universe.

    Parameters
    ----------
    store:
        Backing data array (referenced, never reordered).
    universe:
        The partitioned space; cells are ``universe`` divided uniformly
        ``partitions_per_dim`` times per dimension.
    partitions_per_dim:
        The paper's grid configuration knob (100 for its uniform dataset,
        220 for the skewed neuroscience one — found by sweeping).
    assignment:
        ``"query_extension"`` (paper's choice for Grid/Mosaic) or
        ``"replication"``.
    """

    def __init__(
        self,
        store: BoxStore,
        universe: Box,
        partitions_per_dim: int = 100,
        assignment: str = "query_extension",
    ) -> None:
        super().__init__(store)
        if assignment not in ASSIGNMENTS:
            raise ConfigurationError(
                f"unknown assignment {assignment!r}; expected one of {ASSIGNMENTS}"
            )
        if partitions_per_dim < 1:
            raise ConfigurationError(
                f"partitions_per_dim must be >= 1, got {partitions_per_dim}"
            )
        if universe.ndim != store.ndim:
            raise ConfigurationError(
                f"universe has {universe.ndim} dims, store has {store.ndim}"
            )
        self._universe = universe
        self._parts = int(partitions_per_dim)
        self._assignment = assignment
        self.name = (
            "GridQueryExt" if assignment == "query_extension" else "GridReplication"
        )
        self._uni_lo = np.asarray(universe.lo, dtype=np.float64)
        self._cell_side = (
            np.asarray(universe.hi, dtype=np.float64) - self._uni_lo
        ) / self._parts
        if np.any(self._cell_side <= 0):
            raise ConfigurationError("universe must have positive extent")
        # CSR layout, filled by build():
        self._sorted_rows: np.ndarray | None = None
        self._offsets: np.ndarray | None = None

    @property
    def partitions_per_dim(self) -> int:
        """Grid resolution (cells per dimension)."""
        return self._parts

    @property
    def assignment(self) -> str:
        """Active object-assignment strategy."""
        return self._assignment

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _cell_coords(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates of points, clamped into the grid."""
        rel = (points - self._uni_lo) / self._cell_side
        return np.clip(rel.astype(np.int64), 0, self._parts - 1)

    def build(self) -> None:
        """Assign every live object to its cell(s) — the grid's pre-processing.

        Tombstoned rows are excluded: they can never match.
        """
        if self._built:
            return
        if self._store.n_dead:
            rows = self._store.live_rows()
        else:
            rows = np.arange(self._store.n, dtype=np.int64)
        rows, flat = self._assign(rows)
        order = np.argsort(flat, kind="stable")
        self._sorted_rows = rows[order]
        counts = np.bincount(flat, minlength=self._parts**self._store.ndim)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        # Build cost (comparison model): one linear assignment pass plus a
        # sort of all entries (replication inflates the entry count).
        m = int(rows.size)
        self.build_work = m + int(m * np.log2(max(m, 2)))
        self._built = True

    def _assign(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, flat cell) pairs for the given rows under the active strategy.

        Query extension yields one entry per row (center cell);
        replication yields one per overlapped cell.
        """
        d = self._store.ndim
        if self._assignment == "query_extension":
            centers = (self._store.lo[rows] + self._store.hi[rows]) * 0.5
            cells = self._cell_coords(centers)
        else:
            rows, cells = self._replicated_assignment(rows)
        flat = np.ravel_multi_index(
            tuple(cells[:, k] for k in range(d)), (self._parts,) * d
        )
        return rows, flat

    def _replicated_assignment(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(row, cell) pairs for every cell each given object overlaps."""
        if rows.size == 0:
            return rows, np.empty((0, self._store.ndim), dtype=np.int64)
        lo_cells = self._cell_coords(self._store.lo[rows])
        hi_cells = self._cell_coords(self._store.hi[rows])
        spans = hi_cells - lo_cells + 1
        copies = np.prod(spans, axis=1)
        row_list: list[np.ndarray] = []
        cell_list: list[np.ndarray] = []
        single = copies == 1
        if single.any():
            row_list.append(rows[single])
            cell_list.append(lo_cells[single])
        for k in np.flatnonzero(~single):
            ranges = [
                np.arange(lo_cells[k, dim], hi_cells[k, dim] + 1)
                for dim in range(self._store.ndim)
            ]
            mesh = np.stack(
                [g.ravel() for g in np.meshgrid(*ranges, indexing="ij")], axis=1
            )
            row_list.append(np.full(mesh.shape[0], rows[k], dtype=np.int64))
            cell_list.append(mesh)
        return np.concatenate(row_list), np.concatenate(cell_list)

    # ------------------------------------------------------------------
    # Query: the filter step (cells -> candidate rows)
    # ------------------------------------------------------------------
    def _cells_for(self, query_lo: np.ndarray, query_hi: np.ndarray) -> np.ndarray:
        """Flat ids of every cell the (possibly extended) window overlaps."""
        d = self._store.ndim
        if self._assignment == "query_extension":
            # Centers lie within extent/2 of any point of their box, so
            # half the max extent per side keeps center assignment exact.
            margin = self._store.max_extent / 2.0
            win_lo = query_lo - margin
            win_hi = query_hi + margin
        else:
            win_lo = query_lo
            win_hi = query_hi
        lo_cell = self._cell_coords(win_lo[None, :])[0]
        hi_cell = self._cell_coords(win_hi[None, :])[0]
        # Flattened ids of all cells in the hyper-rectangle of cells.
        axes = [np.arange(lo_cell[k], hi_cell[k] + 1) for k in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.ravel_multi_index(
            tuple(m.ravel() for m in mesh), (self._parts,) * d
        )

    def _execute_batch(self, queries: list[Query]) -> list[QueryResult]:
        """One CSR gather and one stacked refine cover the whole batch.

        The per-query cell arithmetic stays a (cheap) loop, but the two
        expensive steps run once per batch instead of once per query:
        all cells of all queries go through a single ``gather_ranges`` +
        row gather, and all candidate rows are tested in one vectorized
        refine call per predicate present.
        """
        if not self._built:
            raise QueryError("grid queried before build(); call build() first")
        t0 = time.perf_counter()
        flats = [self._cells_for(q.lo, q.hi) for q in queries]
        cell_counts = np.array([f.size for f in flats], dtype=np.int64)
        all_flat = (
            np.concatenate(flats) if flats else np.empty(0, dtype=np.int64)
        )
        starts = self._offsets[all_flat]
        ends = self._offsets[all_flat + 1]
        all_rows = self._sorted_rows[gather_ranges(starts, ends)]
        spans = ends - starts
        edges = np.concatenate(([0], np.cumsum(cell_counts)))
        rows_list: list[np.ndarray] = []
        per_stats: list[IndexStats] = []
        pos = 0
        for i, q in enumerate(queries):
            # Cells were gathered in query order, so each query's rows
            # are a contiguous run of the batch gather.
            width = int(spans[edges[i] : edges[i + 1]].sum())
            rows = all_rows[pos : pos + width]
            pos += width
            self.stats.nodes_visited += int(cell_counts[i])
            self.stats.objects_tested += rows.size
            per_stats.append(
                IndexStats(
                    nodes_visited=int(cell_counts[i]),
                    objects_tested=int(rows.size),
                )
            )
            if self._assignment == "replication" and rows.size:
                rows = np.unique(rows)
            rows_list.append(rows)
        payloads = self._refine_stacked(queries, rows_list)
        return self._wrap_batch(
            queries, payloads, per_stats, time.perf_counter() - t0
        )

    def _plan(self, query: Query) -> QueryPlan:
        """Cells and candidate rows the query would touch (no counters).

        Replication counts stored *copies* here (the per-cell entry
        totals); execution de-duplicates before the refine step, so the
        replicated plan is an upper bound (``exact=False``) — computing
        the deduplicated count would cost the very gather planning
        exists to avoid.
        """
        if not self._built:
            raise QueryError("grid planned before build(); call build() first")
        flat = self._cells_for(query.lo, query.hi)
        candidates = int(
            (self._offsets[flat + 1] - self._offsets[flat]).sum()
        )
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=int(flat.size),
            candidates=candidates,
            exact=self._assignment == "query_extension",
        )

    def memory_bytes(self) -> int:
        """CSR arrays (replication inflates ``sorted_rows``)."""
        if not self._built:
            return 0
        return int(self._sorted_rows.nbytes + self._offsets.nbytes)

    def replication_factor(self) -> float:
        """Stored copies per live object (1.0 under query extension)."""
        if not self._built:
            raise QueryError("grid not built yet")
        return self._sorted_rows.size / max(self._store.live_count, 1)
