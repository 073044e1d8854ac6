"""Partitioning: how the serving engine divides rows among shards.

Two questions, at two different moments:

* :func:`assign` — the **build-time split**: given every box in the
  store, produce a shard id per row.  Called once, when the
  :class:`~repro.sharding.sharded_index.ShardedIndex` is built.
  Sort-Tile-Recursive spatial tiling (the recursion behind the R-Tree
  bulk load, run with an exact shard budget): shards become compact
  spatial bricks of near-equal object count, so small queries intersect
  few shard MBBs and fan-out prunes most shards.
* :func:`route` — the **insert-time routing**: given a batch of new
  boxes and the current shard MBBs/loads, pick an owning shard per box,
  by least margin enlargement (Guttman's ChooseLeaf criterion, on the
  MBB's summed side lengths so degenerate point boxes still
  discriminate), ties broken toward the least-loaded shard.  Called on
  every insert so each shard keeps cracking adaptively on its own slice
  of the data.
"""

from __future__ import annotations

import math

import numpy as np


def assign(lo: np.ndarray, hi: np.ndarray, n_shards: int) -> np.ndarray:
    """STR-tile the boxes into exactly ``n_shards`` compact bricks:
    a shard id (``0..n_shards-1``) per row of the ``(n, d)`` corners.

    The classic STR packing (:func:`repro.baselines.rtree.str_bulkload.str_pack`)
    targets a *capacity* and lets per-level ceilings decide the tile
    count; a serving engine needs exactly ``K`` shards, so this variant
    runs the same sort-and-slab recursion with an exact shard budget:
    each level sorts on one center coordinate and cuts the rows into
    ``ceil(K_left^(1/dims_left))`` slabs whose *row counts are
    proportional to the shard counts they will contain* — near-equal
    object count per shard, near-cubical tiles (every query window
    crossing a shard boundary pays one extra fan-out visit).  Shards may
    end up empty (fewer rows than shards).
    """
    n = lo.shape[0]
    ndim = lo.shape[1]
    owners = np.empty(n, dtype=np.int64)
    if n == 0:
        return owners
    centers = (lo + hi) * 0.5

    def tile(rows: np.ndarray, dim: int, k: int, first_sid: int) -> None:
        if k == 1 or rows.size == 0:
            owners[rows] = first_sid
            return
        dims_left = ndim - dim
        slabs = k if dims_left <= 1 else math.ceil(k ** (1.0 / dims_left))
        # Spread k shards over the slabs as evenly as possible.
        base, extra = divmod(k, slabs)
        shard_counts = [base + 1] * extra + [base] * (slabs - extra)
        order = rows[np.argsort(centers[rows, dim], kind="stable")]
        taken_rows = taken_shards = 0
        for count in shard_counts:
            begin = taken_rows
            taken_shards += count
            taken_rows = round(rows.size * taken_shards / k)
            tile(
                order[begin:taken_rows],
                min(dim + 1, ndim - 1),
                count,
                first_sid,
            )
            first_sid += count

    tile(np.arange(n, dtype=np.int64), 0, n_shards, 0)
    return owners


def route(
    lo: np.ndarray,
    hi: np.ndarray,
    shard_lo: np.ndarray,
    shard_hi: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """Route each box to the shard whose MBB it enlarges the least
    (Guttman's ChooseLeaf criterion on margins), exact ties broken
    toward the least-loaded shard.

    ``shard_lo``/``shard_hi`` are the ``(k, d)`` stacked shard MBBs
    (inverted — ``lo=+inf, hi=-inf`` — for empty shards) and ``loads``
    the per-shard live row counts.
    """
    # Margin (summed side length) enlargement of each shard MBB per
    # row; margin rather than volume so degenerate (point/line) boxes
    # still produce a gradient.  Empty shards have zero margin, so
    # adopting a box "costs" only the box's own margin — they fill up
    # naturally instead of staying empty forever.
    margins = np.maximum(shard_hi - shard_lo, 0.0).sum(axis=1)  # (k,)
    merged = (
        np.maximum(shard_hi[:, None, :], hi[None, :, :])
        - np.minimum(shard_lo[:, None, :], lo[None, :, :])
    ).sum(axis=2)  # (k, m)
    enlargement = merged - margins[:, None]
    # argmin picks the first minimum; pre-ordering rows by load makes
    # that "least-loaded among exact ties".
    by_load = np.argsort(loads, kind="stable")
    return by_load[np.argmin(enlargement[by_load], axis=0)]
