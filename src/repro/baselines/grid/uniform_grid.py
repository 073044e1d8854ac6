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

Updates (beyond the paper): inserts take a *direct* path — the new rows'
cell assignments are computed immediately and kept in a small overflow
extension of the CSR layout, which queries probe alongside the main
arrays; once the overflow outgrows ``merge_threshold`` entries it is
compacted into a fresh CSR (one ``merges`` counter tick).  Deletes are
store-level tombstones filtered at candidate-test time; a store
compaction remaps CSR/overflow entries through the position map and
sheds dead ones (no cell recomputation, no re-sort).
"""

from __future__ import annotations

import time

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError, QueryError
from repro.geometry.box import Box
from repro.index.base import IndexStats, MutableSpatialIndex
from repro.queries.query import Query, QueryPlan, QueryResult
from repro.util.arrays import gather_ranges

#: Assignment strategy names accepted by :class:`UniformGridIndex`.
ASSIGNMENTS = ("query_extension", "replication")


class UniformGridIndex(MutableSpatialIndex):
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
    merge_threshold:
        Overflow entries tolerated before insert compaction rebuilds the
        CSR arrays (the grid's ``merges`` trigger).
    """

    def __init__(
        self,
        store: BoxStore,
        universe: Box,
        partitions_per_dim: int = 100,
        assignment: str = "query_extension",
        merge_threshold: int = 4096,
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
        if merge_threshold < 1:
            raise ConfigurationError(
                f"merge_threshold must be >= 1, got {merge_threshold}"
            )
        self._merge_threshold = int(merge_threshold)
        # CSR layout, filled by build():
        self._sorted_rows: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        # Overflow extension: (flat cell, row) pairs of inserted objects
        # not yet compacted into the CSR arrays.
        self._overflow_flat = np.empty(0, dtype=np.int64)
        self._overflow_rows = np.empty(0, dtype=np.int64)

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

        Tombstoned rows are excluded (they can never match), so overflow
        compactions shed dead entries and the CSR stays at live size
        under sustained churn.
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
    # Updates
    # ------------------------------------------------------------------
    def _insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None
    ) -> np.ndarray:
        """Direct insert: assign the new rows to cells immediately.

        Before ``build()`` the rows simply join the store (the build pass
        will pick them up); after it they extend the overflow arrays and
        trigger a CSR compaction past ``merge_threshold``.
        """
        first_row = self._store.n
        assigned = self._store.append_validated(lo, hi, ids)
        if self._built and assigned.size:
            new_rows = np.arange(first_row, self._store.n, dtype=np.int64)
            rows, flat = self._assign(new_rows)
            self._overflow_flat = np.concatenate([self._overflow_flat, flat])
            self._overflow_rows = np.concatenate([self._overflow_rows, rows])
            if self._overflow_flat.size > self._merge_threshold:
                self._merge_overflow()
        return assigned

    def _merge_overflow(self) -> None:
        """Compact the overflow into a fresh CSR (the grid's lazy merge)."""
        prior_work = self.build_work
        self._built = False
        self._sorted_rows = None
        self._offsets = None
        self._overflow_flat = np.empty(0, dtype=np.int64)
        self._overflow_rows = np.empty(0, dtype=np.int64)
        self.build()
        # build() charges only the rebuild; keep the comparison-model
        # total cumulative across the original build and every compaction.
        self.build_work += prior_work
        self.stats.merges += 1

    def pending_updates(self) -> int:
        """Overflow entries not yet compacted into the CSR arrays."""
        return int(self._overflow_flat.size)

    def _on_compaction(self, remap: np.ndarray) -> None:
        """Remap CSR and overflow entries; drop entries of dead rows.

        Cell assignment depends only on geometry, which compaction does
        not change, so no cells are recomputed and no entries re-sorted:
        row indices pass through ``remap``, entries of dropped rows
        vanish, and the per-cell offsets shrink accordingly.
        """
        if self._sorted_rows is not None:
            # Reconstruct each entry's flat cell from the CSR offsets.
            flat = np.repeat(
                np.arange(self._offsets.size - 1, dtype=np.int64),
                np.diff(self._offsets),
            )
            rows = remap[self._sorted_rows]
            keep = rows >= 0
            self._sorted_rows = rows[keep]
            counts = np.bincount(
                flat[keep], minlength=self._parts**self._store.ndim
            )
            self._offsets = np.concatenate(([0], np.cumsum(counts)))
        if self._overflow_rows.size:
            rows = remap[self._overflow_rows]
            keep = rows >= 0
            self._overflow_rows = rows[keep]
            self._overflow_flat = self._overflow_flat[keep]

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
            if self._overflow_flat.size:
                extra = self._overflow_rows[
                    np.isin(self._overflow_flat, flats[i])
                ]
                rows = np.concatenate([rows, extra])
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
        if self._overflow_flat.size:
            candidates += int(np.isin(self._overflow_flat, flat).sum())
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=int(flat.size),
            candidates=candidates,
            exact=self._assignment == "query_extension",
        )

    def memory_bytes(self) -> int:
        """CSR arrays (replication inflates ``sorted_rows``) plus overflow."""
        if not self._built:
            return 0
        return int(
            self._sorted_rows.nbytes
            + self._offsets.nbytes
            + self._overflow_flat.nbytes
            + self._overflow_rows.nbytes
        )

    def replication_factor(self) -> float:
        """Stored copies per live object (1.0 under query extension).

        Counts CSR and overflow entries of live rows only, so the metric
        stays meaningful between compactions and after deletes.
        """
        if not self._built:
            raise QueryError("grid not built yet")
        entries = np.concatenate([self._sorted_rows, self._overflow_rows])
        if self._store.n_dead:
            entries = entries[self._store.live[entries]]
        return entries.size / max(self._store.live_count, 1)
