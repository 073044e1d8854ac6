"""One shard of the serving engine: one store, one QUASII index, one MBB.

A :class:`Shard` owns a private :class:`~repro.datasets.store.BoxStore`
holding its slice of the data (QUASII physically permutes its store, so
shards cannot share row ranges of one array) plus the QUASII index
:func:`build_index` built over it from the engine's ``config`` and
``max_runs`` — plain data, from which a process worker builds its copy
through the same function.  A shard is one copy: the failure that can
happen on one host, a worker process dying, is survived by the process
pool respawning the worker and republishing from this store
(docs/ARCHITECTURE.md, Worker failure).

The shard tracks its minimum bounding box for query pruning; the MBB is
exact at build time, *expands* when routed inserts arrive (covering
rows an index may still hold in its update buffer), and deliberately
never shrinks on delete (a loose MBB is conservative: it can only cost
a wasted visit, never a missed result).  Compaction is the moment the
looseness is paid off: :meth:`Shard.refresh_mbb` re-tightens the
pruning box to the surviving live rows once the dead ones are gone.

The process tier mirrors a shard in a worker process by replaying its
mutations there.  :attr:`Shard.oplog` is that feed: ``None`` on every
shard no pool serves (sequential engines keep no log), a list once a
:class:`~repro.parallel.pool.ProcessPool` has published the shard's base
and armed it.  From then on the three mutation verbs — ``apply_insert``,
``apply_delete``, ``compact``: the only ways a shard's live multiset or
layout changes — append one :data:`~repro.updates.ledger.LedgerOp`-shaped
entry each (aliasing their arguments) for the pool to drain.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import QuasiiConfig
from repro.core.quasii import QuasiiIndex
from repro.datasets.store import BoxStore
from repro.updates.ledger import LedgerOp

_INF = float("inf")
_NO_IDS = np.empty(0, dtype=np.int64)


def build_index(
    store: BoxStore, config: QuasiiConfig | None, max_runs: int, via_insert: bool = False
) -> QuasiiIndex:
    """Build the index a shard runs over ``store``, which it then owns.

    The one place that decides it: engine build, shard rebuild and the
    process worker all come here.  With ``via_insert`` the index starts
    empty and takes the rows through its own insert/flush path: a large
    batch then lands as an STR bulk-loaded, already-refined run
    (``bulk_flush_threshold``) instead of one coarse slice, so queries
    after a rebuild do not re-crack the shard from scratch on the
    serving path.
    """
    rows = store
    if via_insert:
        empty = np.empty((0, store.ndim), dtype=np.float64)
        store = BoxStore(empty, empty.copy())
    index = QuasiiIndex(store, config, max_runs=max_runs)
    index.build()
    if via_insert and rows.n:
        index.insert(rows.lo, rows.hi, rows.ids)
        index.flush_updates()
    return index


class Shard:
    """A shard id, its store+index, and the pruning MBB.

    Built by the engine over the rows ``lo``/``hi``/``ids``, which the
    shard's store takes as they are (no copy), and indexed by
    :func:`build_index` with ``config``, ``max_runs`` and ``via_insert``.
    """

    __slots__ = ("sid", "store", "index", "mbb_lo", "mbb_hi", "oplog")

    def __init__(
        self,
        sid: int,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray,
        config: QuasiiConfig | None = None,
        max_runs: int = 8,
        via_insert: bool = False,
    ) -> None:
        self.sid = sid
        self.index = build_index(BoxStore(lo, hi, ids), config, max_runs, via_insert)
        self.store = self.index.store
        #: Mutations the serving pool has yet to drain (module docstring).
        self.oplog: list[LedgerOp] | None = None
        self.refresh_mbb()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def owned_count(self) -> int:
        """Live rows owned by this shard, buffered inserts included.

        Routed inserts may sit in the shard index's update buffer before
        physically reaching the store; they are owned (and answered) all
        the same, so load/balance decisions must count them — the
        store's live count alone would under-report a shard that just
        absorbed a burst.  The buffered count comes from the store's
        staged-id registry (every buffered row is registered there by
        the staging gate), so it needs nothing from the shard's index.
        """
        return self.store.live_count + self.store.staged_count

    @property
    def dead_fraction(self) -> float:
        """Tombstoned fraction of the store's physical rows (0 when
        empty): the engine compacts a shard once this crosses its
        ``dead_fraction`` threshold."""
        store = self.store
        return store.n_dead / store.n if store.n else 0.0

    def entombs(self, ids: np.ndarray) -> bool:
        """Whether the store still holds one of ``ids`` tombstoned.

        The engine's only tombstone gate: the index's own insert gate
        would refuse the id until it compacts, after the engine had
        already routed part of the batch."""
        store = self.store
        return bool(store.n_dead) and bool(
            np.isin(ids, store.ids[~store.live]).any()
        )

    def work_counter(self, name: str) -> int:
        """Cumulative value of one index work counter;
        :meth:`ShardedIndex.sync_shard_work` reads fleet work through
        this."""
        return int(getattr(self.index.stats, name))

    def memory_bytes(self) -> int:
        """Footprint of the shard's private store plus its index."""
        store = self.store
        return (
            int(
                store.lo.nbytes
                + store.hi.nbytes
                + store.ids.nbytes
                + store.live.nbytes
            )
            + self.index.memory_bytes()
        )

    # ------------------------------------------------------------------
    # Pruning MBB
    # ------------------------------------------------------------------
    def refresh_mbb(self) -> None:
        """Reset the pruning MBB to exactly cover the live rows.

        Called at construction and after compaction; an empty (or fully
        dead) shard gets the inverted box, which intersects nothing and
        merges as the identity.
        """
        store = self.store
        if store.live_count:
            bounds = store.bounds()
            self.mbb_lo = np.asarray(bounds.lo, dtype=np.float64).copy()
            self.mbb_hi = np.asarray(bounds.hi, dtype=np.float64).copy()
        else:
            self.mbb_lo = np.full(store.ndim, _INF, dtype=np.float64)
            self.mbb_hi = np.full(store.ndim, -_INF, dtype=np.float64)

    def expand(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Grow the MBB to cover an insert batch routed to this shard."""
        if lo.shape[0]:
            self.mbb_lo = np.minimum(self.mbb_lo, lo.min(axis=0))
            self.mbb_hi = np.maximum(self.mbb_hi, hi.max(axis=0))

    # ------------------------------------------------------------------
    # Writes, compaction, flush
    # ------------------------------------------------------------------
    def apply_insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray
    ) -> None:
        """Insert into the index and grow the MBB to cover it at once."""
        self.index.insert(lo, hi, ids)
        self.expand(lo, hi)
        if self.oplog is not None and ids.size:
            self.oplog.append(("insert", lo, hi, ids))

    def apply_delete(self, ids: np.ndarray) -> None:
        """Delete from the index."""
        self.index.delete(ids)
        if self.oplog is not None and ids.size:
            self.oplog.append(("delete", None, None, ids))

    def compact(self) -> int:
        """Compact the index's store; re-tighten the MBB.  Returns the
        rows reclaimed (the engine's accounting unit)."""
        index = self.index
        reclaimed = index.compact()
        if reclaimed and index.pending_updates() == 0:
            # Buffered (not yet drained) inserts are covered by the MBB
            # but invisible to the store; only re-tighten once nothing
            # is pending, or pruning could skip a staged match.
            self.refresh_mbb()
        if self.oplog is not None and reclaimed:
            self.oplog.append(("compact", None, None, _NO_IDS))
        return reclaimed

    def flush_updates(self) -> int:
        """Force the index's pending buffer into its structure; returns
        the rows merged."""
        return self.index.flush_updates()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Shard(sid={self.sid}, n={self.store.n}, index={self.index.name})"
