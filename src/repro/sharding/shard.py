"""One shard of the serving engine: R >= 1 replicas behind one pruning MBB.

A :class:`Shard` owns ``R >= 1``
:class:`~repro.sharding.replication.ShardReplica`\\ s — each a private
*copy* of the shard's slice of the data (incremental indexes physically
permute their store, so neither shards nor replicas can share row
ranges of one array) plus whatever :class:`SpatialIndex` the factory
built over it.  R=1 is the degenerate case of the same class, not a
second one.  ``store``/``index`` name the *primary*, the one replica
that answers reads on both servers — a QUASII reader is a writer, so a
second reader would only crack a second copy — and the rest are
standbys: writes, compaction and flushes reach every live replica, and
when the primary dies the lowest live rid takes over (cold, exactly as
a recovered replica is).  The primary is sticky: it changes only by
dying, so a recovered replica rejoins as a standby.  Rebalancing, MBB
refresh and the process tier read one plain store+index pair whatever
R is.

The replication stream is the shard's
:class:`~repro.updates.ledger.UpdateLedger`: every write is recorded
there *before* it reaches any replica, so the ledger's base snapshot
plus its op log is always a superset-in-time of any replica's state,
and replaying it into a fresh store (:meth:`Shard.recover`)
reconstructs exactly the live multiset every live replica holds —
proven by ``UpdateLedger.assert_matches`` plus the order-insensitive
``BoxStore.live_fingerprint`` of a live peer.  The stream exists **iff
R > 1**: a lone replica has no peer to replay for, and seeding a ledger
over a 250k-row shard costs 0.85 s and 120 MB (measured), so an R=1
shard keeps none and its write path is the bare ``index.insert`` /
``index.delete``.  See docs/ARCHITECTURE.md (Replication).

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

from typing import Callable

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ReplicationError
from repro.index.base import MutableSpatialIndex
from repro.sharding.replication import IndexFactory, ShardReplica, build_replica
from repro.updates.ledger import LedgerOp, UpdateLedger

_INF = float("inf")
_NO_IDS = np.empty(0, dtype=np.int64)


class Shard:
    """A shard id, its replicas (+ ledger iff R > 1), the primary's
    store+index, and the pruning MBB.

    Built by the engine: ``replication`` replicas, all live, each over
    its own copy of the rows ``lo``/``hi``/``ids`` (the last one takes
    the arrays themselves, so an R=1 shard copies nothing) and indexed
    by ``factory`` (now and at recovery, so replicas are structurally
    homogeneous; ``via_insert`` as in
    :func:`~repro.sharding.replication.build_replica`).  ``on_event`` is
    the ``(kind, **payload)`` sink for ``replica.*`` events, if any — the
    log's own ``emit``, never a method of the engine: a shard that
    referenced its engine would close a cycle and keep a dropped engine's
    stores alive until the cyclic collector ran.
    """

    __slots__ = (
        "sid",
        "replicas",
        "ledger",
        "store",
        "index",
        "mbb_lo",
        "mbb_hi",
        "_factory",
        "on_event",
        "oplog",
    )

    def __init__(
        self,
        sid: int,
        factory: IndexFactory,
        replication: int,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray,
        via_insert: bool = False,
        on_event: Callable[..., object] | None = None,
    ) -> None:
        self.sid = sid
        self._factory = factory
        self.on_event = on_event
        self.replicas = [
            build_replica(
                factory,
                rid,
                BoxStore(lo, hi, ids)
                if rid == replication - 1
                else BoxStore(lo.copy(), hi.copy(), ids.copy()),
                via_insert,
            )
            for rid in range(replication)
        ]
        self.ledger = (
            UpdateLedger(self.replicas[0].store) if replication > 1 else None
        )
        self.store = self.replicas[0].store
        self.index = self.replicas[0].index
        #: Mutations the serving pool has yet to drain (module docstring).
        self.oplog: list[LedgerOp] | None = None
        self.refresh_mbb()

    def _notify(self, kind: str, **payload: object) -> None:
        if self.on_event is not None:
            self.on_event(kind, **payload)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def replication(self) -> int:
        """Configured replica count R."""
        return len(self.replicas)

    def live_replicas(self) -> list[ShardReplica]:
        """All live replicas, rid order."""
        return [r for r in self.replicas if r.alive]

    def dead_rids(self) -> list[int]:
        """Rids currently dead (recover targets)."""
        return [r.rid for r in self.replicas if not r.alive]

    def primary(self) -> ShardReplica | None:
        """The live replica ``store``/``index`` name, or None when every
        replica is dead (a live shard always has one: a dying primary
        hands over at once, see :meth:`kill`)."""
        for r in self.replicas:
            if r.index is self.index and r.alive:
                return r
        return None

    def serving(self) -> ShardReplica:
        """The primary, for a server about to answer reads from it.

        Raises :class:`ReplicationError` with zero live replicas instead
        of serving a corpse's stale rows.
        """
        primary = self.primary()
        if primary is None:
            raise ReplicationError(
                f"shard {self.sid}: all {self.replication} replicas are "
                "dead; recover via ledger replay before serving reads"
            )
        return primary

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
        """Tombstoned fraction of the worst live replica's physical rows
        (0 when empty).

        The compaction policy's trigger: the engine compacts a shard
        once this crosses its ``dead_fraction`` threshold.  Replicas
        share one live multiset but not always one set of tombstones: a
        standby rebuilt by ledger replay holds the ones its primary
        already compacted away.
        """
        return max(
            (r.store.n_dead / r.store.n for r in self.live_replicas() if r.store.n),
            default=0.0,
        )

    def entombs(self, ids: np.ndarray) -> bool:
        """Whether a live replica still holds one of ``ids`` tombstoned.

        The engine's only tombstone gate: that replica's own insert gate
        would refuse the id until it compacts, after the engine had
        already routed part of the batch."""
        return any(
            r.store.n_dead and bool(np.isin(ids, r.store.ids[~r.store.live]).any())
            for r in self.live_replicas()
        )

    def work_counter(self, name: str) -> int:
        """Cumulative value of one index work counter across *all*
        replicas (dead ones included: their pre-kill work already
        happened and must stay counted until recovery swaps the replica
        out).  :meth:`ShardedIndex.sync_shard_work` reads fleet work
        through this."""
        return sum(int(getattr(r.index.stats, name)) for r in self.replicas)

    def memory_bytes(self) -> int:
        """Footprint of every replica's private store copy plus its index."""
        return sum(
            int(
                r.store.lo.nbytes
                + r.store.hi.nbytes
                + r.store.ids.nbytes
                + r.store.live.nbytes
            )
            + r.index.memory_bytes()
            for r in self.replicas
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
    # Writes (the replication stream), compaction, flush
    # ------------------------------------------------------------------
    def apply_insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray
    ) -> None:
        """Record the insert in the ledger, apply it to every live
        replica, and grow the MBB to cover it at once.

        Ledger-first ordering is the stream invariant: a replica killed
        between the record and its apply simply misses the write and
        recovers it at replay time.  Dead replicas receive nothing.
        """
        if self.ledger is not None:
            self.ledger.record_insert(lo, hi, ids)
        for r in self.live_replicas():
            r.index.insert(lo, hi, ids)
        self.expand(lo, hi)
        if self.oplog is not None and ids.size:
            self.oplog.append(("insert", lo, hi, ids))

    def apply_delete(self, ids: np.ndarray) -> None:
        """Record the delete in the ledger, then apply to live replicas."""
        if self.ledger is not None:
            self.ledger.record_delete(ids)
        for r in self.live_replicas():
            r.index.delete(ids)
        if self.oplog is not None and ids.size:
            self.oplog.append(("delete", None, None, ids))

    def compact(self) -> int:
        """Compact every *live* replica together; re-tighten the MBB.

        Replicas share one live multiset, so their dead fractions move
        in lockstep; compacting them together keeps the reinsert-id
        gates consistent across the set.  Dead replicas are skipped —
        recovery rebuilds them from the stream anyway.  Returns the
        primary's reclaimed count (the engine's accounting unit).
        """
        reclaimed = pending = 0
        for r in self.live_replicas():
            index = r.index
            # Immutable indexes are never routed a delete, and every
            # replica store starts tombstone-free: nothing to reclaim.
            if isinstance(index, MutableSpatialIndex):
                got = index.compact()
                if index is self.index:
                    reclaimed, pending = got, index.pending_updates()
        if reclaimed and pending == 0:
            # Buffered (not yet drained) inserts are covered by the MBB
            # but invisible to the store; only re-tighten once nothing
            # is pending, or pruning could skip a staged match.
            self.refresh_mbb()
        if self.oplog is not None and reclaimed:
            self.oplog.append(("compact", None, None, _NO_IDS))
        return reclaimed

    def flush_updates(self) -> int:
        """Force every live replica's pending buffer into its structure.

        Returns the primary's count (one logical count per shard) while
        still physically flushing every live replica — rebalancing
        pools rows from primary stores, and recovery fingerprints
        replicas against flushed peers.
        """
        flushed = 0
        for r in self.live_replicas():
            if isinstance(r.index, MutableSpatialIndex):
                got = r.index.flush_updates()
                if r.index is self.index:
                    flushed = got
        return flushed

    # ------------------------------------------------------------------
    # Faults and recovery
    # ------------------------------------------------------------------
    def kill(self, rid: int) -> bool:
        """Mark a replica dead and, if it was the primary, promote the
        lowest live rid; no-op (False) if already dead."""
        r = self.replicas[rid]
        if not r.alive:
            return False
        r.state = "dead"
        self._notify("replica.kill", sid=self.sid, rid=rid)
        self._sync_primary()
        return True

    def recover(self, rid: int) -> ShardReplica:
        """Rebuild a dead replica from the ledger; prove it identical.

        Replays base snapshot + op log into a fresh store, asserts the
        result matches the ledger's live mirror, and fingerprint-checks
        it against the primary (order-insensitive ``live_fingerprint``:
        only the primary cracks, so physical layouts differ while the
        live multiset must not).  Live peers are flushed first so their
        buffered writes are physically comparable.  Once every replica
        is live again the ledger folds its log into the base snapshot
        (:meth:`UpdateLedger.truncate`), bounding future replays.  The
        recovered replica rejoins as a standby unless no replica was
        live.  Idempotent: recovering a live replica is a no-op.
        """
        target = self.replicas[rid]
        if target.alive:
            return target
        if self.ledger is None:
            raise ReplicationError(
                f"shard {self.sid}: replica {rid} cannot be recovered — "
                "an R=1 shard keeps no replication stream to replay "
                "(the ledger exists only when replication > 1)"
            )
        replayed = self.ledger.log_length
        self.flush_updates()
        store = self.ledger.rebuild_store()
        self.ledger.assert_matches(store)
        peer = self.primary()
        if peer is not None and (
            peer.store.live_fingerprint() != store.live_fingerprint()
        ):
            raise ReplicationError(
                f"shard {self.sid}: recovered replica {rid} diverged from "
                f"live peer {peer.rid} (live fingerprints differ)"
            )
        fresh = build_replica(self._factory, rid, store)
        self.replicas[rid] = fresh
        if not self.dead_rids():
            self.ledger.truncate()
        self._notify(
            "replica.recover",
            sid=self.sid,
            rid=rid,
            replayed_ops=replayed,
            live_rows=store.live_count,
        )
        self._sync_primary()
        return fresh

    def _sync_primary(self) -> None:
        """Hand ``store``/``index`` to the lowest live rid if the primary
        is dead, and emit ``replica.failover``.

        With no live replica the dead primary's pair stays in place
        (:meth:`serving` refuses it) until a recovery brings one back.
        """
        old = next((r for r in self.replicas if r.index is self.index), None)
        live = self.live_replicas()
        if (old is not None and old.alive) or not live:
            return
        self.store = live[0].store
        self.index = live[0].index
        self._notify(
            "replica.failover",
            sid=self.sid,
            to_rid=live[0].rid,
            from_rid=None if old is None else old.rid,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        states = "".join(r.state[0] for r in self.replicas)
        return (
            f"Shard(sid={self.sid}, n={self.store.n}, "
            f"index={self.index.name}, replicas={states!r})"
        )
