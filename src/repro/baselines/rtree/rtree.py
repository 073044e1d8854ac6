"""The R-Tree index: the paper's fastest static baseline.

``build()`` runs STR bulk loading (the paper's choice, Section 6.1) or —
for the ablation comparing against one-at-a-time construction — Guttman
insertion.  Queries walk the tree depth-first, pruning all children of a
node with one vectorized MBR intersection test.

The tree is static, as in the paper's evaluation: it is built once over
a store that never changes underneath it (a store mutated behind its
back fails the epoch check).  Under churn, rebuild it over the updated
store — ``examples/live_updates.py`` measures what that costs.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.rtree.guttman import GuttmanRTree
from repro.baselines.rtree.node import RTreeNode
from repro.baselines.rtree.str_bulkload import build_str_rtree
from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError, QueryError
from repro.geometry.predicates import boxes_intersect_window
from repro.index.base import SpatialIndex
from repro.queries.query import Query, QueryPlan


class RTreeIndex(SpatialIndex):
    """Static R-Tree over a :class:`BoxStore`.

    Parameters
    ----------
    store:
        Backing data array (never reordered by this index; leaves hold
        row-index vectors).
    capacity:
        Node capacity; the paper uses 60 for both the R-Tree and QUASII's
        bottom threshold so their leaves are comparable.
    method:
        ``"str"`` (default, the paper's bulk loading) or ``"guttman"``
        (dynamic insertion ablation).
    """

    name = "R-Tree"

    def __init__(
        self, store: BoxStore, capacity: int = 60, method: str = "str"
    ) -> None:
        super().__init__(store)
        if method not in ("str", "guttman"):
            raise ConfigurationError(
                f"unknown build method {method!r}; use 'str' or 'guttman'"
            )
        if capacity < 2:
            raise ConfigurationError(f"capacity must be >= 2, got {capacity}")
        self._capacity = capacity
        self._method = method
        self._root: RTreeNode | None = None
        if method == "guttman":
            self.name = "R-Tree(Guttman)"

    @property
    def root(self) -> RTreeNode | None:
        """Root node after :meth:`build` (``None`` before)."""
        return self._root

    def build(self) -> None:
        """Construct the tree — the static pre-processing the paper times."""
        if self._built:
            return
        if self._store.n == 0:
            # An empty store builds an empty tree: no root to visit.
            self._built = True
            return
        if self._method == "str":
            work = [0]
            self._root = build_str_rtree(self._store, self._capacity, work)
            self.build_work = work[0]
        else:
            self._root = GuttmanRTree(self._store, self._capacity).insert_all()
            # Each insert descends the tree once; charge one row per level.
            self.build_work = self._store.n * self._root.height()
        self._built = True

    def _candidates(self, query: Query) -> np.ndarray:
        if self._root is None:
            if self._built:
                # Built over an empty store: nothing to test.
                return np.empty(0, dtype=np.int64)
            raise QueryError("R-Tree queried before build(); call build() first")
        out: list[np.ndarray] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.stats.nodes_visited += 1
            if node.is_leaf:
                self.stats.objects_tested += node.rows.size
                out.append(node.rows)
            else:
                mask = boxes_intersect_window(
                    node.child_lo, node.child_hi, query.lo, query.hi
                )
                for i in np.flatnonzero(mask):
                    stack.append(node.children[i])
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    def _plan(self, query: Query) -> QueryPlan:
        """Walk the tree counting nodes and leaf rows, mutating nothing."""
        if self._root is None:
            if self._built:
                return QueryPlan(
                    index=self.name, query=query, nodes=0, candidates=0
                )
            raise QueryError("R-Tree planned before build(); call build() first")
        nodes = 0
        candidates = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes += 1
            if node.is_leaf:
                candidates += int(node.rows.size)
            else:
                mask = boxes_intersect_window(
                    node.child_lo, node.child_hi, query.lo, query.hi
                )
                for i in np.flatnonzero(mask):
                    stack.append(node.children[i])
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=nodes,
            candidates=candidates,
            exact=True,
        )

    def height(self) -> int:
        """Tree height (levels); 0 for a built-but-empty tree."""
        if self._root is None:
            if self._built:
                return 0
            raise QueryError("R-Tree not built yet")
        return self._root.height()

    def memory_bytes(self) -> int:
        """Approximate structure footprint: nodes plus leaf row vectors."""
        if self._root is None:
            return 0
        d = self._store.ndim
        per_node = 120 + 2 * 8 * d
        return self._root.count_nodes() * per_node + 8 * self._store.n
