"""Abstract interface implemented by every index in the library.

The paper compares seven systems (Scan, SFC, SFCracker, Grid, Mosaic,
R-Tree, QUASII).  They all expose the same contract:

* :meth:`SpatialIndex.build` — the static pre-processing step.  For
  incremental indexes this is (nearly) free; for static ones it is the
  "Building" bar of Figures 11 and 12.  The benchmark harness times it
  separately so cumulative-time plots can include it, exactly as the paper
  does.
* :meth:`SpatialIndex.execute` — answer one first-class
  :class:`~repro.queries.query.Query` (window + predicate + result
  mode), *possibly mutating internal state and the data array* (that is
  the whole point of incremental indexing), returning a
  :class:`~repro.queries.query.QueryResult` with the payload, a
  per-query :class:`IndexStats` delta, and wall-clock.
* :meth:`SpatialIndex.execute_batch` — answer a sequence of queries
  natively: shared validation, amortized maintenance, and (where the
  structure allows — Scan, Grid, SFC) genuinely vectorized candidate
  matrices covering the whole batch.
* :meth:`SpatialIndex.plan` — report what a query *would* touch
  (nodes/cells/slices, candidate rows, shards) without executing it.

All three take :class:`~repro.queries.query.Query` and nothing else: the
shared gate refuses any other type before routing, counters or the epoch
check run.

There is one read path: a query is a batch of one.  ``execute(q)`` gates
the query and takes the first result of :meth:`SpatialIndex._execute_batch`,
the hook ``execute_batch`` runs for a whole batch.  Every concrete index
implements exactly one of two hooks:

* :meth:`SpatialIndex._candidates` — the *filter* step of the classic
  filter → refine pipeline: a candidate row superset for one window,
  produced however the structure likes, cracking included (R-Tree,
  Mosaic, SFCracker).  The default ``_execute_batch`` calls it per query
  and refines the whole batch at once.
* :meth:`SpatialIndex._execute_batch` itself, where the structure
  gathers candidates for many windows at a time (Scan, Grid, SFC,
  QUASII) or fans out to other indexes
  (:class:`~repro.sharding.sharded_index.ShardedIndex`).

The *refine* step — predicate evaluation, live-row masking, count-only
short-circuits, and result packaging — exists once, in
:meth:`SpatialIndex._refine_stacked`, and per-query :class:`IndexStats`
are built once, in :meth:`SpatialIndex._wrap_batch`.

Implementations also maintain an :class:`IndexStats` counter block so the
harness can report machine-independent work measures (objects tested,
cracks performed) next to wall-clock times.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, fields as dataclass_fields
from typing import Sequence

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError, QueryError
from repro.geometry.predicates import predicate_mask
from repro.queries.query import Query, QueryPlan, QueryResult


@dataclass
class IndexStats:
    """Machine-independent work counters, reset per benchmark phase.

    Attributes
    ----------
    queries:
        Number of queries answered.
    objects_tested:
        Candidate objects checked against a query window (the paper's
        "objects considered for intersection", e.g. the 3.1x GridQueryExt
        vs R-Tree factor of Section 6.2).
    results_returned:
        Total result-set cardinality.
    nodes_visited:
        Index nodes/slices/cells inspected.
    cracks:
        Reorganization operations performed (crack/split/repartition).
        For QUASII one per *partition step*: each query-bound or
        artificial crack of a slice's key frame.
    rows_reorganized:
        Total rows those operations partitioned — the paper's
        incremental-strategy cost driver.  QUASII adds each partition
        step's range size; the steps of one refined slice compose into
        a single permutation, so the store itself moves once per
        refined slice (:mod:`repro.core.cracking`), not once per step.
    inserts:
        Objects inserted through :class:`MutableSpatialIndex.insert`.
    deletes:
        Objects deleted through :class:`MutableSpatialIndex.delete`.
    merges:
        Pending-update batches absorbed into the main index structure
        (QUASII buffer flushes).
    compactions:
        Store compactions absorbed through
        :meth:`MutableSpatialIndex.compact` (tombstoned rows physically
        reclaimed and positions remapped).
    rebalances:
        Shard-rebalancing passes applied
        (:class:`repro.sharding.Rebalancer`; 0 for unsharded indexes).
        Each pass splits a hot shard along the observed query
        distribution and merges a cold one away.
    rows_migrated:
        Rows physically moved between shards by rebalancing passes —
        the sharding layer's analogue of ``rows_reorganized``: migration
        is reorganization work paid to keep load balanced, exactly as
        cracking is reorganization work paid to keep scans short.
    shards_visited:
        Shards whose MBB intersected a query window and were fanned out
        to (:class:`repro.sharding.ShardedIndex`; 0 for unsharded
        indexes).
    shards_pruned:
        Shards skipped entirely because their MBB missed the query
        window — the sharding layer's analogue of ``nodes_visited``
        pruning.
    """

    queries: int = 0
    objects_tested: int = 0
    results_returned: int = 0
    nodes_visited: int = 0
    cracks: int = 0
    rows_reorganized: int = 0
    inserts: int = 0
    deletes: int = 0
    merges: int = 0
    compactions: int = 0
    rebalances: int = 0
    rows_migrated: int = 0
    shards_visited: int = 0
    shards_pruned: int = 0

    # Coverage guarantee: every counter is a dataclass field, and
    # reset/as_dict/snapshot/delta_since iterate ``dataclass_fields`` — so
    # a newly added counter is automatically covered by all four (and by
    # the telemetry ``stats.*`` flow built on as_dict).  A counter can
    # only escape by not being a field at all, which
    # tests/unit/test_index_stats.py asserts cannot happen silently.

    def reset(self) -> None:
        """Zero all counters."""
        for f in dataclass_fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict[str, int]:
        """All counters as ``{name: value}``, in field order."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def snapshot(self) -> IndexStats:
        """A frozen copy of the current counter values."""
        return IndexStats(**self.as_dict())

    def delta_since(self, before: IndexStats) -> IndexStats:
        """Counter-wise difference ``self - before`` (per-query deltas).

        Covers every field — see the coverage guarantee above — so
        deltas of deltas, telemetry flows, and per-query stats all see
        the same complete counter set.
        """
        return IndexStats(
            **{
                name: value - getattr(before, name)
                for name, value in self.as_dict().items()
            }
        )


#: The :class:`IndexStats` fields that measure *work* done inside a
#: serving index — what a sharded engine sums over its fleet and what a
#: worker process ships back per sub-batch.  The flow counters (queries,
#: inserts, results, compactions...) are engine-maintained and must NOT
#: be rolled up, or they would double count — one engine compact() is one
#: compaction event, not K+1.
WORK_COUNTERS = (
    "objects_tested",
    "nodes_visited",
    "cracks",
    "rows_reorganized",
    "merges",
)


class SpatialIndex(abc.ABC):
    """Base class for all spatial access methods in the library.

    Subclasses receive the shared :class:`~repro.datasets.store.BoxStore`
    and answer :class:`~repro.queries.query.Query` specs with
    :class:`~repro.queries.query.QueryResult` payloads (identifiers come
    back unordered; callers sort when they need canonical output).
    """

    #: Short machine-readable name used by reports ("QUASII", "R-Tree", ...).
    name: str = "abstract"

    def __init__(self, store: BoxStore) -> None:
        self._store = store
        self.stats = IndexStats()
        self._built = False
        #: Last store epoch this index has absorbed.  Queries verify it
        #: still matches: derived state (CSR arrays, tree nodes, slice
        #: forests) is never updated by a static index and only for
        #: updates routed *through* a mutable one, so a store updated
        #: behind its back must fail loudly instead of silently
        #: returning stale results.
        self._seen_epoch = store.epoch
        #: Work units spent by the static build step (0 for incrementals).
        #: Together with the per-query counters this yields a machine-
        #: independent comparison-cost model: testing or moving a row
        #: costs one unit, sorting m rows costs m*log2(m) units.
        self.build_work = 0

    @property
    def store(self) -> BoxStore:
        """The underlying data array (incremental indexes permute it)."""
        return self._store

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._built

    def build(self) -> None:
        """Run the static pre-processing step (idempotent).

        Incremental indexes keep the default no-op — their "build" happens
        as a side effect of queries.
        """
        self._built = True

    # ------------------------------------------------------------------
    # First-class execution: execute / execute_batch / plan
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> QueryResult:
        """Execute one first-class query; returns payload + cost accounting.

        A query is a batch of one: after the gate (window dimensionality,
        store epoch) this is the first result of :meth:`_execute_batch`,
        so payload, result order and per-query :class:`IndexStats` are
        those of ``execute_batch([query])[0]``.
        """
        self._gate(query)
        return self._execute_batch([query])[0]

    def execute_batch(self, queries: Sequence[Query]) -> list[QueryResult]:
        """Execute a batch of queries natively, one result per query.

        Validation and the epoch check run once for the whole batch;
        implementations with vectorizable structure (Scan, Grid, SFC)
        additionally answer the batch through shared candidate matrices
        (one kernel invocation per predicate present instead of one per
        query), and incremental indexes amortize buffer merges across
        the batch.  Results come back in submission order and match a
        Python loop of :meth:`execute` calls exactly.
        """
        return self._execute_batch(self._gate_batch(queries))

    def plan(self, query: Query) -> QueryPlan:
        """Report what this query *would* touch, without executing it.

        Planning never mutates the index — no cracking, splitting, or
        counter updates — so for incremental structures the numbers
        describe the pre-refinement state (``exact=False`` marks them
        as upper bounds).
        """
        self._gate(query)
        return self._plan(query)

    # -- gate helpers ---------------------------------------------------
    def _gate_dim(self, query: Query) -> None:
        if not isinstance(query, Query):
            raise QueryError(
                f"expected a Query, got {type(query).__name__}"
            )
        if query.ndim != self._store.ndim:
            raise QueryError(
                f"query has {query.ndim} dims, store has {self._store.ndim}"
            )

    def _gate(self, query: Query) -> None:
        self._gate_dim(query)
        self._check_epoch()

    def _gate_batch(self, queries: Sequence[Query]) -> list[Query]:
        """Gate a whole batch before any of it runs."""
        gated = list(queries)
        for q in gated:
            self._gate_dim(q)
        self._check_epoch()
        return gated

    # -- shared execution skeleton --------------------------------------
    def _execute_batch(self, queries: list[Query]) -> list[QueryResult]:
        """Answer a gated batch; the one hook behind both read verbs.

        Default: the filter → refine pipeline.  Each query's
        :meth:`_candidates` runs in submission order, bracketed by the
        :data:`WORK_COUNTERS` delta that becomes its per-query stats;
        one :meth:`_refine_stacked` then tests the whole batch.
        Overridden where candidates are gathered for many windows at a
        time, or where the index fans out to other indexes.
        """
        t0 = time.perf_counter()
        stats = self.stats
        rows_list: list[np.ndarray] = []
        per_stats: list[IndexStats] = []
        for query in queries:
            before = [getattr(stats, name) for name in WORK_COUNTERS]
            rows_list.append(self._candidates(query))
            per_stats.append(
                IndexStats(
                    **{
                        name: getattr(stats, name) - was
                        for name, was in zip(WORK_COUNTERS, before)
                    }
                )
            )
        payloads = self._refine_stacked(queries, rows_list)
        return self._wrap_batch(
            queries, payloads, per_stats, time.perf_counter() - t0
        )

    def _plan(self, query: Query) -> QueryPlan:
        """Index-specific plan; default assumes a full-store scan."""
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=0,
            candidates=self._store.n,
            exact=True,
        )

    # -- the shared refine kernel ---------------------------------------
    def _package(
        self, query: Query, match_rows: np.ndarray
    ) -> tuple[int, np.ndarray | None, tuple[np.ndarray, np.ndarray] | None]:
        """Build the result-mode payload from final matching rows."""
        store = self._store
        count = int(match_rows.size)
        if query.count_only:
            return count, None, None
        ids = store.ids[match_rows]
        if query.mode == "ids":
            return count, ids, None
        lo = store.lo.take(match_rows, axis=0)
        hi = store.hi.take(match_rows, axis=0)
        if query.mode == "top_k" and count:
            volumes = np.prod(hi - lo, axis=1)
            # Largest volume first, ties broken by ascending id so the
            # ordering is deterministic across physical layouts.
            order = np.lexsort((ids, -volumes))[: query.k]
            ids, lo, hi = ids[order], lo[order], hi[order]
        return count, ids, (lo, hi)

    def _refine_stacked(
        self, queries: list[Query], rows_list: list[np.ndarray]
    ) -> list[tuple[int, np.ndarray | None, tuple | None]]:
        """Refine per-query candidate lists with one kernel per predicate.

        The one refine kernel: ``rows_list[i]`` is query ``i``'s filter
        output — a candidate row superset, dead rows and false positives
        allowed.  All candidate rows of all queries sharing a predicate
        are concatenated and tested in a single vectorized call against
        per-row window matrices, masked by the live rows, then split
        back per query; count-only queries never materialize an id.
        """
        store = self._store
        payloads: list = [None] * len(queries)
        groups: dict[str, list[int]] = {}
        for i, q in enumerate(queries):
            groups.setdefault(q.predicate, []).append(i)
        for pred, idxs in groups.items():
            counts = np.array(
                [rows_list[i].size for i in idxs], dtype=np.int64
            )
            offsets = np.concatenate(([0], np.cumsum(counts)))
            if offsets[-1]:
                cat = np.concatenate([rows_list[i] for i in idxs])
                win_lo = np.repeat(
                    np.stack([queries[i].lo for i in idxs]), counts, axis=0
                )
                win_hi = np.repeat(
                    np.stack([queries[i].hi for i in idxs]), counts, axis=0
                )
                # take() gathers whole rows of a row-major matrix several
                # times faster than fancy indexing (here and in _package).
                mask = predicate_mask(
                    pred,
                    store.lo.take(cat, axis=0),
                    store.hi.take(cat, axis=0),
                    win_lo,
                    win_hi,
                )
                if store.n_dead:
                    mask &= store.live[cat]
            else:
                cat = np.empty(0, dtype=np.int64)
                mask = np.empty(0, dtype=bool)
            for j, i in enumerate(idxs):
                q = queries[i]
                sub_mask = mask[offsets[j] : offsets[j + 1]]
                if q.count_only:
                    payloads[i] = (int(sub_mask.sum()), None, None)
                else:
                    sub_rows = cat[offsets[j] : offsets[j + 1]]
                    payloads[i] = self._package(q, sub_rows[sub_mask])
        return payloads

    def _wrap_batch(
        self,
        queries: list[Query],
        payloads: list[tuple[int, np.ndarray | None, tuple | None]],
        per_stats: list[IndexStats],
        seconds_total: float,
    ) -> list[QueryResult]:
        """Assemble batch results, attributing an equal time share each.

        The one stats bracket: ``per_stats`` carries the work counters
        tracked per query (candidates tested, nodes visited, cracks); the
        flow counters (``queries``, ``results_returned``) are filled in
        here, on both the per-query deltas and the cumulative index
        stats.
        """
        share = seconds_total / max(len(queries), 1)
        out: list[QueryResult] = []
        for query, (count, ids, boxes), stats in zip(
            queries, payloads, per_stats
        ):
            returned = int(ids.size) if ids is not None else count
            stats.queries = 1
            stats.results_returned = returned
            self.stats.queries += 1
            self.stats.results_returned += returned
            out.append(
                QueryResult(
                    query=query,
                    count=count,
                    ids=ids,
                    boxes=boxes,
                    stats=stats,
                    seconds=share,
                )
            )
        return out

    def _check_epoch(self) -> None:
        """Fail loudly if the store was updated outside this index.

        Derived state (CSR arrays, tree nodes, slice forests) is only
        maintained for updates routed through a mutable index; serving —
        or absorbing more — on top of an out-of-band mutation would
        silently drop rows.
        """
        if self._store.epoch != self._seen_epoch:
            raise QueryError(
                f"store epoch {self._store.epoch} != index epoch "
                f"{self._seen_epoch}: the store was updated outside this "
                f"index; route inserts/deletes through the index, or "
                f"construct a fresh index over the store"
            )

    def _candidates(self, query: Query) -> np.ndarray:
        """The filter step: candidate physical rows for the query window.

        Implemented by the indexes that keep the default
        :meth:`_execute_batch`.  Returns a superset of the live rows
        intersecting ``query``'s window — dead rows and false positives
        are fine (the shared refine step removes them), duplicates are
        not.  Incremental indexes may reorganize *their own* structures
        here (cracking, splitting), but the refine step reads the
        returned store positions only after every query of the batch
        has run its filter step: the array must be freshly allocated
        and the store's rows must not move (QUASII, which permutes the
        store, implements :meth:`_execute_batch` instead).
        Implementations maintain their own ``objects_tested`` /
        ``nodes_visited`` counters.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither _candidates nor "
            f"_execute_batch"
        )

    def memory_bytes(self) -> int:
        """Approximate size of auxiliary index structures (not the data)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(n={self._store.n})"


class MutableSpatialIndex(SpatialIndex):
    """A :class:`SpatialIndex` that also absorbs inserts and deletes.

    The paper evaluates QUASII on a static data array and leaves updates
    as future work; this mixin is that future work for the reproduction.
    Only three indexes take it: :class:`~repro.baselines.scan.ScanIndex`
    (the oracle), QUASII and the sharded engine.  The paper's other
    baselines are static, as in its evaluation: they never see their
    store change, and one that does fails the epoch check.

    It adds the two write verbs of the mixed read/write workloads:

    * :meth:`insert` — add new objects.  How they reach the main
      structure is implementation-defined: QUASII stages them in an
      :class:`~repro.updates.buffer.UpdateBuffer` and merges lazily on
      the next query (cracking the appended run like any unrefined
      slice); Scan appends them.
    * :meth:`delete` — remove objects by identifier.  The shared
      :class:`BoxStore` tombstones the rows, so every structure that
      resolves candidates through the store's live mask stays correct
      without reorganizing.

    plus the maintenance verb that pays the tombstones off:

    * :meth:`compact` — physically reclaim dead rows and absorb the
      position remap into the index structure through
      :meth:`_on_compaction`, which every subclass must implement (Python
      refuses to construct one that does not), so scans stop paying for
      rows deletes left behind.

    The verbs maintain the ``inserts`` / ``deletes`` / ``compactions``
    counters; lazy implementations additionally bump ``merges`` when a
    pending batch is absorbed.  After any interleaving of queries and
    updates the index must return exactly the live-row set a full scan
    returns — the property suite enforces this against the Scan oracle.
    """

    def insert(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Insert a batch of boxes; returns their assigned identifiers.

        ``lo``/``hi`` are ``(k, d)`` corner matrices (a single length-``d``
        pair is promoted to a batch of one).  Fresh identifiers are
        allocated unless ``ids`` is given.

        The full batch is validated by :meth:`_validate_insert` (the
        store's shared gate, unless the index keeps its rows elsewhere)
        *before* it reaches the index-specific path — lazy implementations stage
        rows long before the store sees them, and a batch that would fail
        the store's checks at merge time must be rejected up front, not
        lost.
        """
        self._check_epoch()
        lo, hi, ids = self._validate_insert(lo, hi, ids)
        assigned = self._insert(lo, hi, ids)
        self._seen_epoch = self._store.epoch
        self.stats.inserts += int(assigned.size)
        return assigned

    def delete(self, ids: np.ndarray) -> int:
        """Delete the objects with the given identifiers; returns the count.

        Deleting an id that is not currently live raises, keeping update
        ledgers exact.
        """
        self._check_epoch()
        ids = np.asarray(ids, dtype=np.int64).ravel()
        removed = self._delete(ids)
        self._seen_epoch = self._store.epoch
        self.stats.deletes += removed
        return removed

    def compact(self) -> int:
        """Physically reclaim tombstoned rows; returns the count dropped.

        The maintenance verb of the four-mutation model: the store drops
        its dead rows (:meth:`BoxStore.compact`) and the index absorbs
        the resulting position remap through :meth:`on_compaction` —
        slice forests defragment, shard stores compact, pruning boxes
        re-tighten.  Query results are unchanged (the live
        multiset is invariant); what changes is the cost of computing
        them, since scans stop paying for dead rows.  A store with no
        dead rows is a no-op returning 0.
        """
        self._check_epoch()
        reclaimed = self._store.n_dead
        if reclaimed == 0:
            return 0
        self.on_compaction(self._store.compact())
        self.stats.compactions += 1
        return reclaimed

    def on_compaction(self, remap: np.ndarray) -> None:
        """Absorb a store compaction, then re-sync to the store's epoch.

        ``remap`` is the old-position → new-position vector returned by
        :meth:`BoxStore.compact` (``-1`` marks dropped rows).
        """
        if remap.ndim != 1:
            raise ConfigurationError("compaction remap must be a flat vector")
        self._on_compaction(remap)
        self._seen_epoch = self._store.epoch

    def pending_updates(self) -> int:
        """Number of staged rows not yet merged into the main structure."""
        return 0

    def flush_updates(self) -> int:
        """Force pending (buffered) inserts into the main structure now.

        Lazy implementations (QUASII) normally merge their update buffer
        on the next query; maintenance operations that relocate rows —
        shard rebalancing migrates a shard's *store*, so a row still
        sitting in a buffer would be invisible to the move — need every
        owned row physically present first.  Returns the number of rows
        merged (0 when nothing was pending); eager implementations keep
        the default no-op.  Counts toward the ``merges`` counter exactly
        like a query-triggered merge.  Does not change query results:
        buffered rows are already part of the index's answer set.
        """
        return 0

    def _validate_insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The insert gate; the default is the store's own."""
        return self._store.validate_batch(lo, hi, ids)

    @abc.abstractmethod
    def _insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None
    ) -> np.ndarray:
        """Index-specific insert of validated ``(k, d)`` corner batches."""

    @abc.abstractmethod
    def _on_compaction(self, remap: np.ndarray) -> None:
        """Index-specific absorption of a compaction ``remap``."""

    def _delete(self, ids: np.ndarray) -> int:
        """Index-specific delete; the default tombstones store rows."""
        return self._store.delete_ids(ids)
