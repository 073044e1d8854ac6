"""Partitioners: how the serving engine divides rows among shards.

A partitioner answers two questions, at two different moments:

* :meth:`Partitioner.assign` — the **build-time split**: given every box
  in the store, produce a shard id per row.  Called once, when the
  :class:`~repro.sharding.sharded_index.ShardedIndex` is built.
* :meth:`Partitioner.route` — the **insert-time routing**: given a batch
  of new boxes and the current shard MBBs/loads, pick an owning shard
  per box.  Called on every insert so each shard keeps cracking
  adaptively on its own slice of the data.

Two strategies ship with the library:

* :class:`STRPartitioner` — Sort-Tile-Recursive spatial tiling (the
  recursion behind the R-Tree bulk load, run with an exact shard
  budget): shards become compact spatial bricks of near-equal object
  count, so small queries intersect few shard MBBs and fan-out prunes
  most shards.  Inserts are routed by
  least margin enlargement (Guttman's ChooseLeaf criterion, on the
  MBB's summed side lengths so degenerate point boxes still
  discriminate), ties broken toward the least-loaded shard.
* :class:`RoundRobinPartitioner` — the null hypothesis: rows are dealt
  out cyclically, shard MBBs all cover (roughly) the whole universe, and
  queries fan out everywhere.  Perfect load balance, zero pruning — the
  reference a spatial split is judged against.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import ConfigurationError


class Partitioner(abc.ABC):
    """Strategy object deciding shard ownership of rows."""

    #: Machine-readable strategy name (registry key).
    name: str = "abstract"

    @abc.abstractmethod
    def assign(self, lo: np.ndarray, hi: np.ndarray, n_shards: int) -> np.ndarray:
        """Shard id (``0..n_shards-1``) per row of the ``(n, d)`` corners.

        Every row must be assigned to exactly one shard; shards may end
        up empty (e.g. fewer rows than shards).
        """

    @abc.abstractmethod
    def route(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        shard_lo: np.ndarray,
        shard_hi: np.ndarray,
        loads: np.ndarray,
    ) -> np.ndarray:
        """Owning shard id per row of an insert batch.

        ``shard_lo``/``shard_hi`` are the ``(k, d)`` stacked shard MBBs
        (inverted — ``lo=+inf, hi=-inf`` — for empty shards) and
        ``loads`` the per-shard live row counts.
        """


class STRPartitioner(Partitioner):
    """Sort-Tile-Recursive spatial tiling into ``n_shards`` compact bricks.

    The classic STR packing (:func:`repro.baselines.rtree.str_bulkload.str_pack`)
    targets a *capacity* and lets per-level ceilings decide the tile
    count; a serving engine needs exactly ``K`` shards, so this variant
    runs the same sort-and-slab recursion with an exact shard budget:
    each level sorts on one center coordinate and cuts the rows into
    ``ceil(K_left^(1/dims_left))`` slabs whose *row counts are
    proportional to the shard counts they will contain*.  The result is
    exactly ``K`` near-cubical tiles of near-equal object count — compact
    tiles matter, because every query window crossing a shard boundary
    pays one extra fan-out visit.
    """

    name = "str"

    def assign(self, lo: np.ndarray, hi: np.ndarray, n_shards: int) -> np.ndarray:
        """STR-tile the boxes into exactly ``n_shards`` compact bricks.

        Recursively sorts on one center coordinate per level and cuts
        the rows into slabs whose row counts are proportional to the
        shard counts they will contain — near-equal object count per
        shard, near-cubical tiles.
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
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        shard_lo: np.ndarray,
        shard_hi: np.ndarray,
        loads: np.ndarray,
    ) -> np.ndarray:
        """Route each box to the shard whose MBB it enlarges the least
        (Guttman's ChooseLeaf criterion on margins), exact ties broken
        toward the least-loaded shard."""
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


class RoundRobinPartitioner(Partitioner):
    """Deal rows out cyclically — balanced but spatially oblivious."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def assign(self, lo: np.ndarray, hi: np.ndarray, n_shards: int) -> np.ndarray:
        """Deal rows out cyclically: row ``i`` goes to shard ``i % K``."""
        return np.arange(lo.shape[0], dtype=np.int64) % n_shards

    def route(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        shard_lo: np.ndarray,
        shard_hi: np.ndarray,
        loads: np.ndarray,
    ) -> np.ndarray:
        """Continue the cyclic deal across insert batches (a persistent
        cursor keeps consecutive batches evenly spread)."""
        k = shard_lo.shape[0]
        m = lo.shape[0]
        targets = (self._cursor + np.arange(m, dtype=np.int64)) % k
        self._cursor = int((self._cursor + m) % k)
        return targets


#: Registry: strategy name -> partitioner class.
PARTITIONERS: dict[str, type[Partitioner]] = {
    STRPartitioner.name: STRPartitioner,
    RoundRobinPartitioner.name: RoundRobinPartitioner,
}


def make_partitioner(spec: str | Partitioner) -> Partitioner:
    """Resolve a strategy name (or pass through an instance)."""
    if isinstance(spec, Partitioner):
        return spec
    try:
        return PARTITIONERS[spec]()
    except KeyError:
        raise ConfigurationError(
            f"unknown partitioner {spec!r}; choose from {sorted(PARTITIONERS)}"
        ) from None
