"""Classic dynamic R-Tree insertion (Guttman, SIGMOD'84) with quadratic split.

The paper builds its R-Tree statically with STR because all data is
available up front; it notes bulk loading "reduces overlap and decreases
pre-processing time compared to the R-Tree built by inserting one object
at a time" (Section 6.1).  This module implements that one-at-a-time
alternative so the claim is checkable in this reproduction (see the
`bench` ablations): ChooseLeaf by least enlargement, quadratic
node splitting, and upward MBR adjustment.  It is a *build* method only:
:class:`~repro.baselines.rtree.rtree.RTreeIndex` inserts every row once
and then serves the tree unchanged, exactly like its STR-built twin.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.rtree.node import RTreeNode
from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError


def _volume(lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.prod(hi - lo))


class GuttmanRTree:
    """An R-Tree built by repeated insertion.

    Parameters
    ----------
    store:
        Backing store; inserted entries are store row indices.
    capacity:
        Maximum entries per node; nodes split (quadratically) beyond it.
    """

    def __init__(self, store: BoxStore, capacity: int = 60) -> None:
        if capacity < 2:
            raise ConfigurationError(f"capacity must be >= 2, got {capacity}")
        self._store = store
        self._capacity = capacity
        self._min_fill = max(1, capacity // 3)
        self._root: RTreeNode | None = None

    def insert_all(self) -> RTreeNode:
        """Insert every store row and return the root."""
        for row in range(self._store.n):
            self.insert(row)
        return self._root

    def insert(self, row: int) -> None:
        """Insert one store row."""
        lo = self._store.lo[row].copy()
        hi = self._store.hi[row].copy()
        if self._root is None:
            self._root = RTreeNode(lo.copy(), hi.copy(), rows=np.array([row], dtype=np.int64))
            return
        split = self._insert_into(self._root, row, lo, hi)
        if split is not None:
            old_root = self._root
            self._root = RTreeNode(
                np.minimum(old_root.lo, split.lo),
                np.maximum(old_root.hi, split.hi),
                children=[old_root, split],
            )

    # ------------------------------------------------------------------
    def _insert_into(
        self, node: RTreeNode, row: int, lo: np.ndarray, hi: np.ndarray
    ) -> RTreeNode | None:
        """Insert into the subtree; returns a sibling node if ``node`` split."""
        node.lo = np.minimum(node.lo, lo)
        node.hi = np.maximum(node.hi, hi)
        if node.is_leaf:
            node.rows = np.append(node.rows, row)
            if node.rows.size > self._capacity:
                return self._split_leaf(node)
            return None
        # ChooseLeaf: child needing least volume enlargement, ties by
        # volume, then by child order (lexsort is stable).
        child_lo, child_hi = node.child_lo, node.child_hi
        volume = np.prod(child_hi - child_lo, axis=1)
        merged = np.prod(
            np.maximum(child_hi, hi) - np.minimum(child_lo, lo), axis=1
        )
        best = node.children[int(np.lexsort((volume, merged - volume))[0])]
        split = self._insert_into(best, row, lo, hi)
        if split is not None:
            node.children.append(split)
            if len(node.children) > self._capacity:
                sibling = self._split_internal(node)
                node.refresh_child_mbrs()
                return sibling
        node.refresh_child_mbrs()
        return None

    # ------------------------------------------------------------------
    # Quadratic split
    # ------------------------------------------------------------------
    def _quadratic_partition(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quadratic PickSeeds/PickNext partition of entry MBRs.

        Returns boolean membership masks for the two groups.
        """
        m = lo.shape[0]
        # PickSeeds: pair (i < j) wasting the most area if grouped
        # together; argmax keeps the first maximum in row-major order.
        volume = np.prod(hi - lo, axis=1)
        merged = np.prod(
            np.maximum(hi[:, None], hi[None, :]) - np.minimum(lo[:, None], lo[None, :]),
            axis=2,
        )
        waste = merged - volume[:, None] - volume[None, :]
        waste[np.tril_indices(m)] = -np.inf
        seeds = divmod(int(np.argmax(waste)), m)
        g1_lo, g1_hi = lo[seeds[0]].copy(), hi[seeds[0]].copy()
        g2_lo, g2_hi = lo[seeds[1]].copy(), hi[seeds[1]].copy()
        in_g1 = np.zeros(m, dtype=bool)
        in_g1[seeds[0]] = True
        assigned = np.zeros(m, dtype=bool)
        assigned[[seeds[0], seeds[1]]] = True
        remaining = m - 2
        while remaining:
            unassigned = np.flatnonzero(~assigned)
            g1_count = int(in_g1.sum())
            g2_count = int(assigned.sum()) - g1_count
            # Force-assign when a group needs every remaining entry to
            # reach its minimum fill.
            if g1_count + remaining <= self._min_fill:
                in_g1[unassigned] = True
                assigned[unassigned] = True
                break
            if g2_count + remaining <= self._min_fill:
                assigned[unassigned] = True
                break
            # PickNext: entry with the greatest preference difference.
            d1 = np.prod(
                np.maximum(g1_hi, hi[unassigned]) - np.minimum(g1_lo, lo[unassigned]),
                axis=1,
            ) - _volume(g1_lo, g1_hi)
            d2 = np.prod(
                np.maximum(g2_hi, hi[unassigned]) - np.minimum(g2_lo, lo[unassigned]),
                axis=1,
            ) - _volume(g2_lo, g2_hi)
            pick = int(np.argmax(np.abs(d1 - d2)))
            entry = unassigned[pick]
            to_g1 = d1[pick] < d2[pick] or (
                d1[pick] == d2[pick] and _volume(g1_lo, g1_hi) <= _volume(g2_lo, g2_hi)
            )
            assigned[entry] = True
            if to_g1:
                in_g1[entry] = True
                g1_lo = np.minimum(g1_lo, lo[entry])
                g1_hi = np.maximum(g1_hi, hi[entry])
            else:
                g2_lo = np.minimum(g2_lo, lo[entry])
                g2_hi = np.maximum(g2_hi, hi[entry])
            remaining -= 1
        return in_g1, ~in_g1

    def _split_leaf(self, node: RTreeNode) -> RTreeNode:
        rows = node.rows
        lo = self._store.lo[rows]
        hi = self._store.hi[rows]
        in_g1, in_g2 = self._quadratic_partition(lo, hi)
        node.rows = rows[in_g1]
        node.lo = lo[in_g1].min(axis=0)
        node.hi = hi[in_g1].max(axis=0)
        return RTreeNode(
            lo[in_g2].min(axis=0), hi[in_g2].max(axis=0), rows=rows[in_g2]
        )

    def _split_internal(self, node: RTreeNode) -> RTreeNode:
        children = node.children
        lo = np.stack([c.lo for c in children])
        hi = np.stack([c.hi for c in children])
        in_g1, in_g2 = self._quadratic_partition(lo, hi)
        keep = [c for c, m in zip(children, in_g1) if m]
        move = [c for c, m in zip(children, in_g1) if not m]
        node.children = keep
        node.recompute_mbr()
        sibling = RTreeNode(
            lo[in_g2].min(axis=0), hi[in_g2].max(axis=0), children=move
        )
        return sibling
