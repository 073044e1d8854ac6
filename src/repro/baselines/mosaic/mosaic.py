"""Mosaic: the paper's space-oriented incremental baseline (Section 3.2).

Mosaic adapts Space Odyssey's incremental indexing to main memory: it
builds an Octree top-down as a side effect of queries.  For every query it
finds the partitions overlapping the query window and splits each *once*
into ``2^d`` equal children, reassigning the partition's objects by their
centers.  Frequently queried regions thus deepen by one level per query
until they reach the capacity threshold — the repeated re-partitioning the
paper identifies as Mosaic's main overhead.

Object assignment uses the query-extension technique (the paper shows in
Section 6.2 that replication is far worse for volumetric objects), so
queries are enlarged by half the maximum object extent when collecting
candidate partitions.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError
from repro.geometry.box import Box
from repro.index.base import SpatialIndex
from repro.queries.query import Query, QueryPlan


class _Partition:
    """One Octree cell: spatial bounds plus member rows or children."""

    __slots__ = ("lo", "hi", "rows", "children", "depth", "born")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        rows: np.ndarray,
        depth: int,
        born: int = -1,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.rows = rows
        self.children: list[_Partition] | None = None
        self.depth = depth
        # Serial of the query that created this partition; a query never
        # splits partitions it just created (one level of deepening per
        # query, as in the paper's Figure 2).
        self.born = born

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def size(self) -> int:
        return int(self.rows.size) if self.rows is not None else 0


class MosaicIndex(SpatialIndex):
    """Incrementally built Octree (the paper's "Mosaic").

    Parameters
    ----------
    store:
        Backing data array (referenced; partitions hold row-index arrays).
    universe:
        Space the root partition covers, widened to every object's
        center: a row assigned outside the root's bounds would be
        pruned from every query.
    capacity:
        Partitions at or below this size stop splitting (kept equal to the
        other indexes' node capacity, 60).
    max_depth:
        Hard depth limit guarding against pathological point clusters.
    """

    name = "Mosaic"

    def __init__(
        self,
        store: BoxStore,
        universe: Box,
        capacity: int = 60,
        max_depth: int = 24,
    ) -> None:
        super().__init__(store)
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        if universe.ndim != store.ndim:
            raise ConfigurationError(
                f"universe has {universe.ndim} dims, store has {store.ndim}"
            )
        self._capacity = capacity
        self._max_depth = max_depth
        self._universe = universe
        self._centers = (store.lo + store.hi) * 0.5
        root_lo = np.asarray(universe.lo, dtype=np.float64)
        root_hi = np.asarray(universe.hi, dtype=np.float64)
        if store.n:
            root_lo = np.minimum(root_lo, self._centers.min(axis=0))
            root_hi = np.maximum(root_hi, self._centers.max(axis=0))
        self._root = _Partition(
            root_lo, root_hi, np.arange(store.n, dtype=np.int64), depth=0
        )
        self._fanout = 1 << store.ndim
        self._query_serial = 0

    def build(self) -> None:
        """No-op: Mosaic's structure emerges from queries."""
        self._built = True

    # ------------------------------------------------------------------
    def _split(self, part: _Partition) -> None:
        """Split a leaf into ``2^d`` children, reassigning rows by center."""
        d = self._store.ndim
        mid = (part.lo + part.hi) * 0.5
        centers = self._centers[part.rows]
        child_index = np.zeros(part.rows.size, dtype=np.int64)
        for k in range(d):
            child_index |= (centers[:, k] > mid[k]).astype(np.int64) << (d - 1 - k)
        order = np.argsort(child_index, kind="stable")
        sorted_rows = part.rows[order]
        counts = np.bincount(child_index, minlength=self._fanout)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        children: list[_Partition] = []
        for c in range(self._fanout):
            offs = np.array(
                [(c >> (d - 1 - k)) & 1 for k in range(d)], dtype=np.int64
            )
            lo = np.where(offs == 1, mid, part.lo)
            hi = np.where(offs == 1, part.hi, mid)
            children.append(
                _Partition(
                    lo,
                    hi,
                    sorted_rows[offsets[c] : offsets[c + 1]],
                    part.depth + 1,
                    born=self._query_serial,
                )
            )
        part.children = children
        part.rows = None
        self.stats.cracks += 1
        self.stats.rows_reorganized += int(offsets[-1])

    def _candidates(self, query: Query) -> np.ndarray:
        self._query_serial += 1
        # Centers sit within extent/2 of their boxes, so half the maximum
        # extent keeps center-based assignment exact (query extension).
        margin = self._store.max_extent / 2.0
        win_lo = query.lo - margin
        win_hi = query.hi + margin
        out: list[np.ndarray] = []
        stack = [self._root]
        while stack:
            part = stack.pop()
            self.stats.nodes_visited += 1
            if np.any(part.lo > win_hi) or np.any(part.hi < win_lo):
                continue
            if part.is_leaf:
                # The per-query, one-level deepening of Figure 2: only
                # partitions that existed before this query may split.
                if (
                    part.size > self._capacity
                    and part.depth < self._max_depth
                    and part.born < self._query_serial
                ):
                    self._split(part)
                    stack.extend(part.children)
                    continue
                rows = part.rows
                if rows.size:
                    self.stats.objects_tested += rows.size
                    out.append(rows)
            else:
                stack.extend(part.children)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    def _plan(self, query: Query) -> QueryPlan:
        """Walk the current Octree without splitting anything.

        ``exact=False``: execution deepens overlapping partitions by one
        level, so the split's children may prune candidates the current
        leaves would test.
        """
        margin = self._store.max_extent / 2.0
        win_lo = query.lo - margin
        win_hi = query.hi + margin
        nodes = 0
        candidates = 0
        stack = [self._root]
        while stack:
            part = stack.pop()
            nodes += 1
            if np.any(part.lo > win_hi) or np.any(part.hi < win_lo):
                continue
            if part.is_leaf:
                candidates += part.size
            else:
                stack.extend(part.children)
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=nodes,
            candidates=candidates,
            exact=False,
        )

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Partition objects plus row arrays."""
        total = 0
        stack = [self._root]
        while stack:
            part = stack.pop()
            total += 100 + 2 * 8 * self._store.ndim
            if part.is_leaf:
                total += int(part.rows.nbytes)
            else:
                stack.extend(part.children)
        return total
