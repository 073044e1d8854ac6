"""The sharded serving engine: K shards, fan-out queries, routed updates.

:class:`ShardedIndex` turns one :class:`~repro.datasets.store.BoxStore`
into a partition-then-search architecture ("The Case for Learned Spatial
Indexes" shows this layout dominating monolithic structures; LiLIS builds
a distributed framework the same way): an STR split
(:func:`~repro.sharding.partitioner.assign`) cuts the rows into
``n_shards`` spatial tiles, an index factory builds one
:class:`SpatialIndex` per shard (QUASII by default, so every shard keeps
*cracking adaptively* on its own slice forest), and the engine exposes
the full :class:`MutableSpatialIndex` contract over the fleet:

* **Queries** fan out only to shards whose MBB intersects the window
  (``shards_visited`` / ``shards_pruned`` count the pruning), and the
  per-shard id sets are merged and deduplicated.
* **Inserts** are routed to an owning shard by least MBB enlargement
  (:func:`~repro.sharding.partitioner.route`); the shard's MBB expands
  to cover the new rows immediately (they may sit in the shard index's
  update buffer, and pruning must never skip them).
* **Deletes** are routed by the id→shard ownership map the engine
  maintains, so only owning shards do any work.
* **Compaction** reclaims the dead space deletes leave behind:
  :meth:`ShardedIndex.maybe_compact` compacts every shard whose
  tombstoned fraction crosses a policy threshold (re-tightening its
  pruning MBB), and :meth:`ShardedIndex.compact` every shard holding a
  tombstone; both count the rows the shard primaries reclaimed.

The shards' stores are the engine's rows.  The store handed to the
constructor is the build input: :meth:`ShardedIndex.build` partitions
its live rows into private shard copies (incremental shard indexes
physically permute them), and it is never written again — it only
hands out fresh ids (``reserve_ids`` / ``claim_ids`` write no rows and
leave its epoch alone, so a caller who mutates it still fails the epoch
check).  Explicit insert ids are checked against the engine's own id
set: the ownership map plus the tombstones live replicas still hold.

Every read — ``execute`` is a batch of one — runs as route → serve →
merge (:meth:`ShardedIndex.route_batch`, :meth:`ShardedIndex.serve_local`);
the :class:`~repro.sharding.executor.QueryExecutor` drives the same
halves and can swap the in-thread server for worker processes.

Every shard keeps ``replication`` replicas (default 1; see
:mod:`repro.sharding.shard` for the serving primary, the write stream,
failover and recovery), and the engine owns the fault seam: a
:class:`~repro.sharding.replication.FaultInjector` is ticked once per
routed query, insert or delete on the coordinating thread.

The engine also observes its own traffic: every planned query's centroid
is recorded in a :class:`~repro.sharding.rebalancer.WorkloadProfile`, and
per-shard load is counted where batches are routed — the same on both
servers.  When the balance factor or query-load skew drifts, a
:class:`~repro.sharding.rebalancer.Rebalancer` splits the hot shard
along the observed query distribution and merges the coldest one away —
see :mod:`repro.sharding.rebalancer` for the mechanics and
:mod:`repro.sharding.maintenance` for the scheduling policy that runs
both rebalancing and compaction on the query path.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError, DatasetError, ReplicationError
from repro.geometry.predicates import boxes_intersect_window
from repro.index.base import WORK_COUNTERS, MutableSpatialIndex, SpatialIndex
from repro.queries.query import Query, QueryPlan, QueryResult
from repro.sharding import partitioner
from repro.sharding.rebalancer import WorkloadProfile
from repro.sharding.replication import (
    Fault,
    FaultInjector,
    IndexFactory,
    ShardReplica,
)
from repro.sharding.shard import Shard
from repro.telemetry.events import EventLog


def _default_factory(store: BoxStore) -> SpatialIndex:
    from repro.core.quasii import QuasiiIndex

    return QuasiiIndex(store)


class ShardedIndex(MutableSpatialIndex):
    """K per-shard indexes behind one :class:`MutableSpatialIndex` facade.

    Parameters
    ----------
    store:
        The build input; its live rows are partitioned at :meth:`build`
        time into private shard copies, and it is never written after
        that (see the module docstring).
    n_shards:
        Number of shards ``K >= 1``.
    index_factory:
        Callable building one index per replica store (so replicas are
        structurally homogeneous); defaults to
        :class:`~repro.core.quasii.QuasiiIndex`.
    replication:
        Replicas per shard ``R >= 1``: one serving primary plus
        ``R - 1`` standbys.  Only with ``R > 1`` do shards keep a
        replication stream, so at the default 1 a killed replica cannot
        be recovered.
    fault_injector:
        Optional :class:`~repro.sharding.replication.FaultInjector`,
        ticked once per engine operation (query routing, insert,
        delete) on the coordinating thread; due faults are applied
        before the operation proceeds.
    events:
        Optional :class:`~repro.telemetry.events.EventLog` receiving
        the canonical ``replica.*`` events.

    Examples
    --------
    >>> from repro.datasets import make_uniform
    >>> from repro.queries import uniform_workload
    >>> ds = make_uniform(10_000, seed=7)
    >>> engine = ShardedIndex(ds.store, n_shards=4)
    >>> engine.build()                      # STR split + per-shard indexes
    >>> for q in uniform_workload(ds.universe, 5, seed=7):
    ...     ids = engine.execute(q).ids     # fans out, prunes, merges
    """

    name = "Sharded"

    def __init__(
        self,
        store: BoxStore,
        n_shards: int = 4,
        index_factory: IndexFactory | None = None,
        replication: int = 1,
        fault_injector: FaultInjector | None = None,
        events: EventLog | None = None,
    ) -> None:
        super().__init__(store)
        if n_shards < 1:
            raise ConfigurationError(f"need n_shards >= 1, got {n_shards}")
        if replication < 1:
            raise ConfigurationError(
                f"need replication >= 1, got {replication}"
            )
        self._n_shards = int(n_shards)
        self._replication = int(replication)
        self._fault_injector = fault_injector
        self._events = events
        self._factory: IndexFactory = index_factory or _default_factory
        self._shards: list[Shard] = []
        #: id -> owning shard sid, maintained for every *live* object.
        self._owner: dict[int, int] = {}
        # Stacked (k, d) shard MBBs so planning prunes the whole fleet
        # with one vectorized intersection test; rebuilt lazily after
        # shard MBBs expand.
        self._stack_lo: np.ndarray | None = None
        self._stack_hi: np.ndarray | None = None
        # Fleet work totals already rolled into self.stats (so roll-ups
        # survive an outer stats.reset() without double counting).
        self._work_seen = dict.fromkeys(WORK_COUNTERS, 0)
        #: The observed query distribution: recent planned-query
        #: windows plus per-shard routed-query counts.  Feeds the
        #: :class:`~repro.sharding.rebalancer.Rebalancer`'s drift
        #: detection and its query-driven split cut.
        self.profile = WorkloadProfile()
        tiling = f"strx{self._n_shards}"
        self.name = (
            f"Replicated[{tiling}xR{self._replication}]"
            if self._replication > 1
            else f"Sharded[{tiling}]"
        )

    def sync_shard_work(self) -> None:
        """Fold the fleet's work counters into this engine's stats.

        Called after every query (and by the executor after every batch)
        so harnesses that read ``engine.stats`` see the whole fleet's
        objects tested, cracks, rows moved, and merges.
        """
        for name in WORK_COUNTERS:
            total = sum(s.work_counter(name) for s in self._shards)
            delta = total - self._work_seen[name]
            if delta:
                setattr(self.stats, name, getattr(self.stats, name) + delta)
                self._work_seen[name] = total

    def _rebaseline_work(self) -> None:
        """Restart the fleet work totals from the indexes as they are.

        A rebuilt shard or a recovered replica starts with zeroed index
        counters; :meth:`sync_shard_work` must never see that as a
        negative delta.  Callers sync first, so nothing is lost.
        """
        for name in WORK_COUNTERS:
            self._work_seen[name] = sum(
                s.work_counter(name) for s in self._shards
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards (fixed at construction)."""
        return self._n_shards

    @property
    def shards(self) -> tuple[Shard, ...]:
        """The shard fleet (read-only view; built after :meth:`build`)."""
        return tuple(self._shards)

    @property
    def replication(self) -> int:
        """Replicas per shard."""
        return self._replication

    def attach_event_log(self, events: EventLog) -> None:
        """Attach an event log for ``replica.*`` events (keeps an
        already-attached log — the constructor wins over the executor)."""
        if self._events is None:
            self._events = events
            for shard in self._shards:
                shard.on_event = events.emit

    def owner_of(self, obj_id: int) -> int:
        """Owning shard sid of a live object id (raises if not live)."""
        try:
            return self._owner[int(obj_id)]
        except KeyError:
            raise DatasetError(f"id {obj_id} is not live in any shard") from None

    def shard_sizes(self) -> list[int]:
        """Owned live rows per shard, buffered inserts included (the
        balance profile; also the load vector for insert routing)."""
        return [s.owned_count for s in self._shards]

    def balance_factor(self) -> float:
        """Max/mean owned live rows across shards (1.0 = perfect balance).

        The drift signal skewed *ingestion* moves: inserts concentrating
        on few shards push it up, and the
        :class:`~repro.sharding.rebalancer.Rebalancer` pulls it back
        down by splitting the largest shard.  Counts buffered inserts
        (see :attr:`Shard.owned_count`) so a burst is visible before any
        query drains it.
        """
        sizes = self.shard_sizes()
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        return max(sizes) / mean if mean > 0 else 1.0

    def memory_bytes(self) -> int:
        """Shard store copies plus per-shard index structures."""
        # ~60 bytes per ownership-map entry is the CPython dict ballpark.
        return sum(s.memory_bytes() for s in self._shards) + 60 * len(self._owner)

    # ------------------------------------------------------------------
    # Build: partition + per-shard index construction
    # ------------------------------------------------------------------
    def _make_shard(
        self,
        sid: int,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray,
        via_insert: bool = False,
    ) -> Shard:
        """A fresh, fully live shard of this engine's factory and R
        (it takes ownership of the row arrays)."""
        on_event = self._events.emit if self._events is not None else None
        return Shard(
            sid, self._factory, self._replication, lo, hi, ids, via_insert, on_event
        )

    def build(self) -> None:
        """Partition the store's live rows and build R replicas per shard."""
        if self._built:
            return
        store = self._store
        rows = store.live_rows()
        owners = partitioner.assign(store.lo[rows], store.hi[rows], self._n_shards)
        for sid in range(self._n_shards):
            mine = rows[owners == sid]
            self._shards.append(
                self._make_shard(
                    sid, store.lo[mine], store.hi[mine], store.ids[mine]
                )
            )
        ids = store.ids[rows]
        self._owner = dict(zip(ids.tolist(), owners.tolist()))
        self._seen_epoch = store.epoch
        self._built = True

    # ------------------------------------------------------------------
    # Queries: prune, fan out, merge
    # ------------------------------------------------------------------
    def _mbb_stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked shard MBBs, rebuilt if inserts expanded any shard."""
        if self._stack_lo is None:
            self._stack_lo = np.stack([s.mbb_lo for s in self._shards])
            self._stack_hi = np.stack([s.mbb_hi for s in self._shards])
        return self._stack_lo, self._stack_hi

    def _hits(self, query: Query) -> np.ndarray:
        """Sids whose MBB intersects the window: one vectorized test."""
        stack_lo, stack_hi = self._mbb_stacks()
        return np.flatnonzero(
            boxes_intersect_window(stack_lo, stack_hi, query.lo, query.hi)
        )

    def plan_shards(self, query: Query) -> list[Shard]:
        """Shards whose MBB intersects the window, updating prune counters.

        The *routing* half of planning (the cost-estimating half is the
        inherited :meth:`~repro.index.base.SpatialIndex.plan`), always
        on the coordinating thread.  Each planned window's centroid is
        also recorded in :attr:`profile` — routing is the one spot every
        query goes through exactly once, whoever serves it, so the
        observed-traffic record stays exact — and, for the same reason,
        the spot where the fault clock ticks.
        """
        self._tick_faults()
        self.profile.record(query)
        hits = self._hits(query)
        self.stats.shards_visited += int(hits.size)
        self.stats.shards_pruned += self._n_shards - int(hits.size)
        return [self._shards[i] for i in hits]

    def route_batch(self, queries: list[Query]) -> dict[int, list[int]]:
        """Route a gated batch: ``sid -> query indexes``, in batch order.

        The one routing loop — every batch, whoever serves it, is
        planned here on the coordinating thread, so each query moves the
        prune counters, the traffic profile (its window in
        :meth:`plan_shards`, its per-shard count here) and the fault
        clock exactly once.
        """
        if not self._built:
            raise ConfigurationError(
                "ShardedIndex queried before build(); call build() first"
            )
        queues: dict[int, list[int]] = {}
        for i, q in enumerate(queries):
            for shard in self.plan_shards(q):
                queues.setdefault(shard.sid, []).append(i)
        self.profile.count_routed(queues)
        return queues

    def serve_local(
        self, queries: list[Query], queues: dict[int, list[int]]
    ) -> dict[int, tuple[list[int], list[QueryResult], float]]:
        """The in-thread server: ``sid -> (idxs, sub-results, seconds)``.

        Each routed shard answers its whole sub-batch through its index's
        *native* ``execute_batch`` — one call per shard instead of one
        per (query, shard) pair, so vectorized shard indexes batch their
        candidate matrices and QUASII shards amortize their merges — and
        the call is timed, so shard skew is as visible here as behind
        :meth:`~repro.parallel.pool.ProcessPool.run_batch`, which returns
        the same shape.  The primary answers (:meth:`Shard.serving`
        refuses a shard with no live replica).
        """
        served: dict[int, tuple[list[int], list[QueryResult], float]] = {}
        for sid, idxs in queues.items():
            w0 = time.perf_counter()
            sub = self._shards[sid].serving().index.execute_batch(
                [queries[i] for i in idxs]
            )
            served[sid] = (idxs, sub, time.perf_counter() - w0)
        return served

    def _execute_batch(self, queries: list[Query]) -> list[QueryResult]:
        """Route, serve in-thread, merge: the executor's pipeline minus
        its fan-out profile."""
        t0 = time.perf_counter()
        served = self.serve_local(queries, self.route_batch(queries))
        return self._assemble_batch(queries, served, t0)

    def _assemble_batch(
        self,
        queries: list[Query],
        served: dict[int, tuple[list[int], list[QueryResult], float]],
        t0: float,
    ) -> list[QueryResult]:
        """Merge served sub-batches into engine-level batch results.

        The one merge, whoever served.  The merge work itself is part of
        the batch, so wall-clock is captured *after* merging and the
        equal-share per-query seconds are stamped in a second pass.
        Per-query index-stat deltas cannot be attributed to a single
        query across a fleet batch, so ``stats`` is ``None`` on fleet
        results (on both read verbs); fleet work lands in the engine's
        cumulative stats through :meth:`sync_shard_work`.
        """
        partials: dict[int, list[QueryResult]] = {}
        for idxs, sub, _ in served.values():
            for i, res in zip(idxs, sub):
                partials.setdefault(i, []).append(res)
        payloads = [
            self._merge_payload(q, partials.get(i, []))
            for i, q in enumerate(queries)
        ]
        share = (time.perf_counter() - t0) / max(len(queries), 1)
        out: list[QueryResult] = []
        for q, (count, ids, boxes) in zip(queries, payloads):
            returned = int(ids.size) if ids is not None else count
            self.stats.queries += 1
            self.stats.results_returned += returned
            out.append(QueryResult(q, count, ids, boxes, stats=None, seconds=share))
        self.sync_shard_work()
        return out

    def _plan(self, query: Query) -> QueryPlan:
        """Aggregate the sub-plans of every shard the query would touch.

        Pure estimation: no prune counters, no profile recording — the
        side-effecting routing lives in :meth:`plan_shards`.
        """
        if not self._built:
            raise ConfigurationError(
                "ShardedIndex planned before build(); call build() first"
            )
        subs = [self._shards[i].index.plan(query) for i in self._hits(query)]
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=sum(sub.nodes for sub in subs),
            candidates=sum(sub.candidates for sub in subs),
            shards=len(subs),
            exact=all(sub.exact for sub in subs),
        )

    @staticmethod
    def _merge(parts: Sequence[np.ndarray]) -> np.ndarray:
        """Merge + deduplicate per-shard id sets (ownership is exclusive,
        so duplicates indicate a routing bug — unique keeps the contract
        airtight whenever shard sets actually combine; a single
        contributing shard cannot self-duplicate, so its set passes
        through without paying the sort)."""
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        return np.unique(np.concatenate(parts))

    def _merge_payload(
        self, query: Query, parts: Sequence[QueryResult]
    ) -> tuple[int, np.ndarray | None, tuple[np.ndarray, np.ndarray] | None]:
        """Combine per-shard :class:`QueryResult`\\ s into one payload.

        Ownership is exclusive, so shard result sets are disjoint:
        counts add, id sets merge through the dedup-checking
        :meth:`_merge`, boxes concatenate, and top-k re-ranks the
        per-shard top-k unions (each shard already kept its ``k``
        largest, so the global top-k is within the union).
        """
        count = int(sum(r.count for r in parts))
        if query.count_only:
            return count, None, None
        if query.mode == "ids":
            return count, self._merge([r.ids for r in parts]), None
        with_rows = [r for r in parts if r.ids is not None and r.ids.size]
        if not with_rows:
            empty = np.empty((0, self._store.ndim), dtype=np.float64)
            return count, np.empty(0, dtype=np.int64), (empty, empty.copy())
        ids = np.concatenate([r.ids for r in with_rows])
        lo = np.concatenate([r.boxes[0] for r in with_rows])
        hi = np.concatenate([r.boxes[1] for r in with_rows])
        if query.mode == "top_k":
            volumes = np.prod(hi - lo, axis=1)
            order = np.lexsort((ids, -volumes))[: query.k]
            return count, ids[order], (lo[order], hi[order])
        return count, ids, (lo, hi)

    # ------------------------------------------------------------------
    # Updates: shard-aware routing
    # ------------------------------------------------------------------
    def _validate_insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Before :meth:`build`, the input store's gate.  After it, shape
        and geometry from that gate and explicit ids against the engine's
        own: taken if repeated in the batch, owned (live or buffered), or
        still tombstoned in a live replica, whose gate would refuse it
        mid-route."""
        if not self._built:
            return super()._validate_insert(lo, hi, ids)
        lo, hi, _ = self._store.validate_batch(lo, hi, None)
        if ids is None:
            return lo, hi, None
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if ids.shape != (lo.shape[0],):
            raise DatasetError(
                f"ids shape {ids.shape} does not match {lo.shape[0]} batch rows"
            )
        listed = ids.tolist()
        if len(set(listed)) < len(listed) or not self._owner.keys().isdisjoint(listed):
            raise DatasetError("batch ids collide with existing ids")
        if any(s.entombs(ids) for s in self._shards):
            raise DatasetError(
                "batch ids collide with ids still tombstoned in a shard "
                "(compact() first)"
            )
        return lo, hi, ids

    def _insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None
    ) -> np.ndarray:
        if not self._built:
            # Pre-build rows join the input store; build() partitions them.
            return self._store.append_validated(lo, hi, ids)
        self._tick_faults()
        self._require_mutable_shards()
        # The input store allocates ids (no rows, no epoch), so the
        # engine's id stream is the one a Scan over the same input sees.
        if ids is None:
            assigned = self._store.reserve_ids(lo.shape[0])
        else:
            self._store.claim_ids(ids)
            assigned = ids
        if not assigned.size:
            return assigned
        loads = np.asarray(self.shard_sizes(), dtype=np.int64)
        targets = partitioner.route(lo, hi, *self._mbb_stacks(), loads)
        for sid in np.unique(targets):
            shard = self._shards[int(sid)]
            mine = targets == sid
            shard.apply_insert(lo[mine], hi[mine], assigned[mine])
        self._stack_lo = self._stack_hi = None
        for obj_id, sid in zip(assigned.tolist(), targets.tolist()):
            self._owner[obj_id] = int(sid)
        self.sync_shard_work()
        return assigned

    def _require_mutable_shards(self) -> None:
        """Raise before any mutation if the fleet cannot absorb updates."""
        for shard in self._shards:
            if not isinstance(shard.index, MutableSpatialIndex):
                raise ConfigurationError(
                    f"shard index {shard.index.name!r} does not support "
                    "updates; use a MutableSpatialIndex factory"
                )
            if shard.ledger is None and not shard.replicas[0].alive:
                raise ReplicationError(
                    f"shard {shard.sid}: its only replica is dead and an "
                    "R=1 shard keeps no replication stream, so a write "
                    "routed there would be lost"
                )

    def _delete(self, ids: np.ndarray) -> int:
        if not self._built:
            return self._store.delete_ids(ids)
        self._tick_faults()
        self._require_mutable_shards()
        id_list = np.unique(ids).tolist()
        missing = [i for i in id_list if i not in self._owner]
        if missing:
            raise DatasetError(
                f"cannot delete ids not live in any shard: {missing[:5]}"
            )
        by_shard: dict[int, list[int]] = {}
        for obj_id in id_list:
            by_shard.setdefault(self._owner.pop(obj_id), []).append(obj_id)
        for sid, victims in by_shard.items():
            self._shards[sid].apply_delete(np.asarray(victims, dtype=np.int64))
        self.sync_shard_work()
        return len(id_list)

    # ------------------------------------------------------------------
    # Compaction: reclaim dead space shard by shard
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Compact every shard holding a tombstone in a live replica;
        returns the rows the shard primaries reclaimed.

        :meth:`maybe_compact` at threshold 0 — the engine has no rows of
        its own, so the whole-store verb is a loop over the shards too.
        """
        return self.maybe_compact(0.0)

    def _on_compaction(self, remap: np.ndarray) -> None:
        raise ConfigurationError(
            "ShardedIndex keeps no rows of its own to remap: the shards "
            "compact themselves (compact() / maybe_compact())"
        )

    def maybe_compact(self, dead_fraction: float = 0.3) -> int:
        """Policy-driven compaction; returns the rows the shard
        primaries reclaimed.

        The serving-loop maintenance verb: every shard whose tombstoned
        fraction (:attr:`Shard.dead_fraction`, its worst live replica's)
        exceeds ``dead_fraction`` is compacted, shrinking its pruning
        MBB and restoring its load counters to live-row reality.  Shards
        below the threshold are untouched, so steady-state calls are
        cheap — sprinkle this between batches instead of scheduling
        stop-the-world rebuilds.
        """
        if not 0.0 <= dead_fraction < 1.0:
            raise ConfigurationError(
                f"dead_fraction must be in [0, 1), got {dead_fraction}"
            )
        self._check_epoch()
        dirty = [s for s in self._shards if s.dead_fraction > dead_fraction]
        if not dirty:
            return 0
        # Re-tightened shard MBBs invalidate the stacked routing MBBs.
        self._stack_lo = self._stack_hi = None
        reclaimed = sum(shard.compact() for shard in dirty)
        self.stats.compactions += 1
        self.sync_shard_work()
        return reclaimed

    def pending_updates(self) -> int:
        """Rows staged in shard-level update buffers, fleet-wide."""
        return sum(
            s.index.pending_updates()
            for s in self._shards
            if isinstance(s.index, MutableSpatialIndex)
        )

    def flush_updates(self) -> int:
        """Force every shard's pending buffer into its structure now.

        The fleet-wide form of
        :meth:`~repro.index.base.MutableSpatialIndex.flush_updates`:
        after it returns, every owned row is physically present in its
        shard's store (in every live replica's, see :meth:`Shard.flush_updates`)
        — the precondition for migrating rows between shards.  Returns
        the total rows merged across the fleet, one count per shard.
        """
        flushed = sum(s.flush_updates() for s in self._shards)
        if flushed:
            self.sync_shard_work()
        return flushed

    # ------------------------------------------------------------------
    # Rebalancing: shard-to-shard row migration
    # ------------------------------------------------------------------
    # The verbs below only move rows *between shards*, so the union of
    # the shards' live rows — the engine's live (id, box) multiset — is
    # preserved by construction, and the build input is never touched.
    # rebuild_shard + finish_rebalance are the engine half of a
    # :class:`~repro.sharding.rebalancer.Rebalancer` pass.

    def rebuild_shard(
        self, sid: int, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray
    ) -> None:
        """Replace shard ``sid`` with a fresh replica set over the rows.

        Mutable shard indexes are rebuilt through their own insert/flush
        path (see :func:`~repro.sharding.replication.build_replica`), so
        post-rebuild queries do not re-crack the shard from scratch on
        the serving path.  The new set starts fully live with a fresh
        ledger — a re-replication point, so faults on the old set are
        wiped.  The pruning MBB is re-derived from the new store (a stale
        one would mis-route the next insert), ownership is rewritten for
        every row, and the fleet work totals are recalibrated.
        """
        # Fold the outgoing indexes' unsynced work before discarding them.
        self.sync_shard_work()
        self._shards[sid] = self._make_shard(
            sid, lo.copy(), hi.copy(), ids.copy(), via_insert=True
        )
        for obj_id in ids.tolist():
            self._owner[int(obj_id)] = sid
        self._rebaseline_work()
        self._stack_lo = self._stack_hi = None

    def finish_rebalance(self, rows_migrated: int) -> None:
        """Seal a rebalancing pass: counters, profile baseline, MBBs."""
        self.stats.rebalances += 1
        self.stats.rows_migrated += int(rows_migrated)
        self.profile.rebaseline()
        self._stack_lo = self._stack_hi = None
        self.sync_shard_work()

    # ------------------------------------------------------------------
    # Fault seam: ticked on the routing path, applied on the coordinator
    # ------------------------------------------------------------------
    def _tick_faults(self) -> None:
        injector = self._fault_injector
        if injector is not None:
            for fault in injector.advance():
                self.apply_fault(fault)

    def apply_fault(self, fault: Fault) -> bool:
        """Apply one fault now; returns whether it changed anything."""
        if not 0 <= fault.sid < self._n_shards:
            raise ConfigurationError(
                f"fault targets shard {fault.sid}; engine has "
                f"{self._n_shards} shards"
            )
        if not 0 <= fault.rid < self._replication:
            raise ConfigurationError(
                f"fault targets replica {fault.rid}; shards have "
                f"{self._replication} replicas"
            )
        return self.kill_replica(fault.sid, fault.rid)

    def kill_replica(self, sid: int, rid: int) -> bool:
        """Kill one replica; a standby takes over if it was the primary."""
        return self._shards[sid].kill(rid)

    def dead_replicas(self) -> list[tuple[int, int]]:
        """All currently-dead ``(sid, rid)`` pairs."""
        return [(s.sid, rid) for s in self._shards for rid in s.dead_rids()]

    def recover_replica(self, sid: int, rid: int) -> ShardReplica:
        """Ledger-replay one dead replica back to life (needs R > 1).

        Folds the outgoing replica's unsynced work into the engine's
        stats first, then recalibrates the fleet work baseline for the
        fresh replica's zeroed counters.
        """
        self.sync_shard_work()
        replica = self._shards[sid].recover(rid)
        self._rebaseline_work()
        return replica

    def recover_all(self) -> int:
        """Recover every dead replica fleet-wide; returns the count."""
        dead = self.dead_replicas()
        for sid, rid in dead:
            self.recover_replica(sid, rid)
        return len(dead)

    def validate_routing(self) -> None:
        """Assert the ownership map matches shard stores exactly (tests)."""
        seen: dict[int, int] = {}
        for shard in self._shards:
            store = shard.store
            live = store.ids[store.live_rows()]
            for obj_id in live.tolist():
                assert obj_id not in seen, f"id {obj_id} owned by two shards"
                seen[obj_id] = shard.sid
                assert self._owner.get(obj_id) == shard.sid, (
                    f"id {obj_id} mapped to shard {self._owner.get(obj_id)} "
                    f"but stored in shard {shard.sid}"
                )
        # Buffered (not yet merged) rows are owned but not yet in stores.
        unmapped = set(self._owner) - set(seen)
        assert len(unmapped) == self.pending_updates(), (
            f"{len(unmapped)} owned-but-unstored ids vs "
            f"{self.pending_updates()} pending buffer rows"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedIndex(n_shards={self._n_shards}, "
            f"replication={self._replication}, built={self._built})"
        )
