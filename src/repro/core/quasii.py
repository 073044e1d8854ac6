"""QUASII: the QUery-Aware Spatial Incremental Index (Sections 4 and 5).

The index is built *as a side effect of query execution*.  Each query:

1. walks the d-level slice hierarchy depth-first (Algorithm 1), binary
   searching each sibling list for the first candidate slice;
2. *refines* every candidate slice that still exceeds its level threshold
   (Algorithm 2) by cracking the data array on the query's boundaries —
   three-way, two-way, or artificial (midpoint) slicing — with the query
   **extended by its top-level list's maximum object extent** on the lower
   side so that representing objects by their lower coordinate never loses results;
3. collects fully refined bottom-level slices as candidate rows; the
   shared refine kernel (:mod:`repro.index.base`) then tests them
   against the raw window under the query's predicate and result mode.

A batch walks level by level instead: a read-only *frontier* tests all
its (query, slice) pairs of a level at once and answers every query before
the first that hits a slice step 2 would crack, which walks alone, in
order, with all later ones (as a batch of one always does).

The hierarchy converges toward an STR-like tiling of exactly the regions
queries touch; untouched regions stay coarse (a single unsorted run of the
data array).

Updates (beyond the paper — Section 7 leaves them as future work):
inserts are staged in an :class:`~repro.updates.buffer.UpdateBuffer` and
merged lazily: the next query drains the buffer into the store as an
appended run headed by a fresh coarse top-level slice, which the normal
Algorithm 1/2 machinery then cracks exactly like any unrefined region.
The index therefore maintains a *forest* of top-level slice lists — the
original hierarchy (one list per extent class) plus one per absorbed
run — each converging
independently under the queries that touch it.  Deletes tombstone rows in
place (slice ranges stay valid; leaf scans skip dead rows via the store's
live mask); :meth:`~repro.index.base.MutableSpatialIndex.compact`
physically reclaims the tombstones and *defragments* the forest — slice
ranges remap through the compaction's position map, emptied slices drop,
hollowed-out fragments merge back together, and final-slice MBBs
re-tighten to the surviving rows.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator

import numpy as np

from repro.core.config import PAPER_TAU, QuasiiConfig
from repro.core.cracking import Frame, crack, range_dim_stats
from repro.core.slices import COLUMN_DTYPES, Piece, SliceList
from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError, DatasetError, GeometryError
from repro.index.base import IndexStats, MutableSpatialIndex
from repro.queries.query import Query, QueryPlan, QueryResult
from repro.updates.buffer import UpdateBuffer
from repro.util.arrays import gather_ranges

_INF = float("inf")

#: The extent-class rule, derived in :meth:`QuasiiIndex._classify`.
_LARGE_RATIO, _CLASS_STRIDE = 2.0, 64


class QuasiiIndex(MutableSpatialIndex):
    """The paper's core contribution, over a shared :class:`BoxStore`.

    Objects are keyed by their lower corner and artificial slices are cut
    at the key-range midpoint, as in the paper (Section 5.1).  Appended
    insert runs of at least the top-level threshold are *STR
    bulk-loaded* at merge time — sorted level by level into an
    already-refined slice hierarchy (the eager version of what queries
    would crack out incrementally, exactly as STR inspired Algorithm 2) —
    instead of joining the forest as one coarse run that the next
    queries would crack from scratch; any smaller run is already
    "refined at level 0" by definition and stays lazy.

    Parameters
    ----------
    store:
        The data array; **physically reordered** by queries.
    config:
        Explicit threshold ladder; defaults to the paper's Equation-1
        ladder for the store with bottom threshold ``tau``.
    tau:
        Bottom-level slice capacity, used only when ``config`` is omitted
        (the paper's single parameter; default 60).
    max_runs:
        Cap on appended insert runs kept as separate top-level slice
        lists.  Past it, all appended runs collapse back into one coarse
        run (their refinement is discarded and re-earned by later
        queries), bounding the per-query forest walk under sustained
        ingestion.

    Examples
    --------
    >>> from repro.datasets import make_uniform
    >>> from repro.queries import uniform_workload
    >>> ds = make_uniform(10_000, seed=7)
    >>> index = QuasiiIndex(ds.store)
    >>> queries = uniform_workload(ds.universe, n_queries=5, seed=7)
    >>> results = index.execute_batch(queries)        # index builds itself
    """

    name = "QUASII"

    def __init__(
        self,
        store: BoxStore,
        config: QuasiiConfig | None = None,
        tau: int = PAPER_TAU,
        max_runs: int = 8,
    ) -> None:
        super().__init__(store)
        if max_runs < 1:
            raise ConfigurationError(f"max_runs must be >= 1, got {max_runs}")
        self._max_runs = int(max_runs)
        # Auto-derived configs over an *empty* store are provisional:
        # the ladder is re-derived from the first absorbed run's actual
        # size (see _absorb_pending), so a start-empty index bulk-loaded
        # with a large batch does not keep thresholds sized for n = 1
        # (which would shred the run into hundreds of top-level slabs).
        self._provisional_config = config is None and store.n == 0
        self._tau = int(tau)
        if config is None:
            config = QuasiiConfig.for_dataset(max(store.n, 1), store.ndim, tau)
        if config.ndim != store.ndim:
            raise ConfigurationError(
                f"config is for {config.ndim} dims, store has {store.ndim}"
            )
        self._config = config
        # Rows present at construction: when nonzero, tops[0] is the
        # main query-built hierarchy and is never bulk-loaded by flushes.
        self._initial_rows = store.n
        # The slice forest: the main hierarchy over the initial rows plus
        # one top-level list per absorbed insert run, in row order.  An
        # empty store starts with an empty forest; the first absorbed run
        # becomes its root.
        self._tops: list[SliceList] = (
            [self._coarse_run(0, store.n)] if store.n else []
        )
        # Per top-level list, its rows' maximum extent (Stefanakis et al.).
        self._margins = [store.max_extent.copy()] if store.n else []
        # Leading lists that max_runs does not count (see _classify).
        self._main_runs, self._unclassified = 1, store.n > 0
        # Pending inserts, drained into the store by the next query.
        self._buffer = UpdateBuffer(store)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def config(self) -> QuasiiConfig:
        """The resolved threshold ladder."""
        return self._config

    @property
    def _top(self) -> SliceList:
        """The main hierarchy (over the store's initial rows)."""
        return self._tops[0]

    @property
    def runs(self) -> int:
        """Number of runs: 1 (the main hierarchy) + absorbed insert runs."""
        return len(self._tops) - self._main_runs + 1

    def _extended_bounds(self, query: Query, margin: np.ndarray) -> tuple[list[float], ...]:
        """Per-dimension key range of ``query``, extended on the lower side.

        An object intersecting the window can have its lower-corner key
        below the window by at most ``margin`` (its top-level list's maximum
        object extent), never above it — Section 5.2's query extension.
        Computed once per query and list, as ``(key lo, window lo, window
        hi)`` lists (the key range ends at the window's upper bound); the
        walk and Algorithm 2 index them by level.
        """
        return (
            (query.lo - margin).tolist(),
            query.lo.tolist(),
            query.hi.tolist(),
        )

    def build(self) -> None:
        """No-op: QUASII has no pre-processing step (that is the point)."""
        self._built = True

    def _execute_batch(self, queries: list[Query]) -> list[QueryResult]:
        """One frontier walk per batch level; only queries that crack walk alone.

        The update buffer is drained at most once per batch, and the merge
        is charged to the index, not to any query's stats.  The read-only
        :meth:`_frontier` then walks the whole batch level by level.  If no
        query hits a slice Algorithm 2 would crack, it answers them all;
        otherwise it answers the queries before the first such one, and
        that query and every later one walk — and refine — the forest in
        submission order through the scalar :meth:`_leaves` (cracking is
        inherently per-query, that is the point of the index).  Either
        way each query only *collects* its leaves; the candidate rows of
        the whole batch are gathered in one pass and handed to the stacked
        refine kernel.  :meth:`_leaves` says why reading them late is safe.
        A batch of one always takes the scalar walk, as does every batch
        before :meth:`_classify` ran: a frontier level costs a fixed dozen
        array calls, which only a batch amortizes.
        """
        t0 = perf_counter()
        if len(self._buffer):
            self._absorb_pending()
        stats = self.stats
        k, per_stats, offsets = 0, [], [0]  # offsets: candidate rows up to each query
        if len(queries) > 1 and not self._unclassified:
            k, visited, found = self._frontier(queries)
            tested = np.bincount(found[0], found[2] - found[1], k).astype(np.int64)
            per_stats = [
                IndexStats(objects_tested=t, nodes_visited=v)
                for t, v in zip(tested.tolist(), visited[:k].tolist())
            ]
            stats.nodes_visited += int(visited[:k].sum())
            offsets += np.cumsum(tested).tolist()
        leaves: list[int] = []
        for query in queries[k:]:
            before = (stats.cracks, stats.rows_reorganized, stats.nodes_visited)
            found_one = self._leaves(query)
            leaves += found_one
            n = sum(found_one[1::2]) - sum(found_one[0::2])
            offsets.append(offsets[-1] + n)
            per_stats.append(
                IndexStats(
                    objects_tested=n,
                    cracks=stats.cracks - before[0],
                    rows_reorganized=stats.rows_reorganized - before[1],
                    nodes_visited=stats.nodes_visited - before[2],
                )
            )
        stats.objects_tested += offsets[-1]
        begins, ends = leaves[0::2], leaves[1::2]
        if k:
            begins, ends = np.concatenate((found[1], begins)), np.concatenate((found[2], ends))
        rows = gather_ranges(begins, ends)
        rows_list = [rows[a:b] for a, b in zip(offsets, offsets[1:])]
        payloads = self._refine_stacked(queries, rows_list)
        return self._wrap_batch(queries, payloads, per_stats, perf_counter() - t0)

    def _frontier(
        self, queries: list[Query], plan: bool = False
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Algorithm 1 for a whole batch, one level at a time, read-only.

        Per level, the (query, list) pairs expand into (query, slice)
        candidates over the reached lists' concatenated columns; the key
        range (``next cut > key lo``, ``cut <= key hi``: the ``[i, j)`` of
        :meth:`SliceList.probe`) and MBB tests are array operations, and
        hits group by child list (lazy ones created as :meth:`_walk` does).

        Returns ``(k, visited, found)``: ``k`` is the first query that hits
        a slice :meth:`_refine` would crack (``len(queries)`` when none
        does), and the frontier drops every query from ``k`` on;
        ``visited`` counts each query's probed slices; ``found`` holds the
        ``(query, begin, end)`` rows of the hits that end a walk, queries
        before ``k`` only.  Pairs stay sorted by query, then row, from level
        to level (children subdivide their parent's rows in order), so the
        bottom hits come out in each query's depth-first order.  In
        ``plan`` mode nothing is handed off or created: every hit with no
        child list ends there as candidate rows.  Cracking never moves a
        slice the frontier passes (those are final; a crack splices a
        non-final slice into pieces), so the queries before ``k`` see the
        forest their scalar walks would.
        """
        nq, d = len(queries), self._config.ndim
        win_lo = np.array([q.lo for q in queries], np.float64).reshape(nq, d)
        win_hi = np.array([q.hi for q in queries], np.float64).reshape(nq, d)
        margins = np.array(self._margins, np.float64).reshape(-1, d)
        k, visited, found, lists = nq, np.zeros(nq, np.int64), [], self._tops
        # The pairs: query, top-level list (its margin) and reached list.
        pq = np.repeat(np.arange(nq), len(lists))
        pm = pl = np.tile(np.arange(len(lists)), nq)
        while pq.size:
            level = lists[0].level
            cut, begin, end, mbb_lo, mbb_hi, final = (
                np.concatenate([getattr(lst, name) for lst in lists]) for name in COLUMN_DTYPES
            )
            lens = np.array([len(lst) for lst in lists], np.int64)
            stop = np.cumsum(lens)
            nxt = np.append(cut[1:], _INF)
            nxt[stop - 1] = _INF
            cand = gather_ranges(stop[pl] - lens[pl], stop[pl])
            pair = np.repeat(np.arange(pq.size), lens[pl])
            q = pq[pair]
            inside = (nxt[cand] > win_lo[q, level] - margins[pm[pair], level]) & (
                cut[cand] <= win_hi[q, level]
            )
            cand, pair, q = cand[inside], pair[inside], q[inside]
            visited += np.bincount(q, minlength=nq)
            hit = ((mbb_lo[cand] <= win_hi[q]) & (mbb_hi[cand] >= win_lo[q])).all(axis=1)
            cand, pair, q = cand[hit], pair[hit], q[hit]
            crackable = ~final[cand] & (end[cand] - begin[cand] > self._config.threshold(level))
            if not plan and crackable.any():
                k = min(k, int(q[crackable].min()))
                keep = q < k
                cand, pair, q = cand[keep], pair[keep], q[keep]
            if level == d - 1:
                found.append(np.stack((q, begin[cand], end[cand])))
                break
            heads, inverse = np.unique(cand, return_inverse=True)
            owner = np.searchsorted(stop, heads, "right")
            children = []
            for g, o in zip((heads - stop[owner] + lens[owner]).tolist(), owner.tolist()):
                child = lists[o].children[g]
                if child is None and not plan:
                    child = self._default_child(lists[o], g)
                children.append(child)
            has = np.array([c is not None for c in children], dtype=np.bool_)
            leaf = ~has[inverse]
            found.append(np.stack((q[leaf], begin[cand[leaf]], end[cand[leaf]])))
            lists = [c for c in children if c is not None]
            pq, pm, pl = q[~leaf], pm[pair[~leaf]], (np.cumsum(has) - 1)[inverse[~leaf]]
        rows = np.concatenate(found, axis=1) if found else np.zeros((3, 0), np.int64)
        return k, visited, rows[:, rows[0] < k]

    def _plan(self, query: Query) -> QueryPlan:
        """Walk the current forest without refining or merging anything.

        Counts the slices the walk would test (the read-only
        :meth:`_frontier`, in ``plan`` mode) and the rows of every
        overlapping deepest-materialized slice; pending buffered rows
        are added whole (execution would absorb them into a coarse run
        first).  ``exact=False`` — execution cracks oversized slices,
        so the real scan is typically narrower.
        """
        _, visited, found = self._frontier([query], plan=True)
        rows = len(self._buffer) + int((found[2] - found[1]).sum())
        return QueryPlan(self.name, query, nodes=int(visited[0]), candidates=rows, exact=False)

    # ------------------------------------------------------------------
    # Updates: staged inserts, lazy merge, tombstone deletes
    # ------------------------------------------------------------------
    def _insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None
    ) -> np.ndarray:
        """Stage the batch; it reaches the hierarchy on the next query.

        Collisions with still-buffered ids are rejected upstream by the
        store's collision gate: every staged id is registered via
        :meth:`~repro.datasets.store.BoxStore.stage_ids`.
        """
        return self._buffer.add(lo, hi, ids)

    def _delete(self, ids: np.ndarray) -> int:
        """Tombstone rows in place; still-buffered targets just vanish.

        All-or-nothing: the store half of the batch is applied (and
        validated — unknown ids raise there) *before* the buffer half is
        discarded, so a failed delete leaves staged rows intact.
        """
        staged_mask = np.isin(ids, self._buffer.ids)
        count = 0
        remaining = ids[~staged_mask]
        if remaining.size:
            count += self._store.delete_ids(remaining)
        count += int(self._buffer.discard(ids[staged_mask]).size)
        return count

    def pending_updates(self) -> int:
        """Staged rows not yet merged into the slice forest."""
        return len(self._buffer)

    def flush_updates(self) -> int:
        """Drain the update buffer into the forest without waiting for a
        query; returns the rows merged (bumps ``merges`` when nonzero)."""
        self._check_epoch()
        pending = len(self._buffer)
        if pending:
            self._absorb_pending()
        return pending

    def _absorb_pending(self) -> None:
        """Drain the buffer into the store as a coarse appended run.

        This is the lazy merge: the run joins the forest as one unrefined
        top-level slice (or extends the previous run while that is still
        virgin), and subsequent queries crack it via Algorithm 2 exactly
        like any other coarse region — the insert path reuses the paper's
        own refinement machinery instead of adding a second one.
        """
        lo, hi, ids = self._buffer.drain()
        begin = self._store.n
        try:
            self._store.append_validated(lo, hi, ids)
        except (DatasetError, GeometryError):
            # Never lose a staged batch: insert() pre-validates, so this
            # is a can't-happen guard, but re-stage before propagating.
            # These are the only errors the store's append path raises.
            self._buffer.add(lo, hi, ids)
            raise
        self._seen_epoch = self._store.epoch
        end = self._store.n
        margin = (hi - lo).max(axis=0)
        if self._provisional_config and not self._tops:
            # First absorbed run of a start-empty index: the real size
            # is known now — re-derive the auto ladder for it so a bulk
            # load refines into sensibly-sized slabs instead of the
            # n = 1 minimal ladder's.
            self._config = QuasiiConfig.for_dataset(
                max(end, 1), self._store.ndim, self._tau
            )
            self._provisional_config = False
        tail = self._tops[-1] if self._tops else None
        appended = len(self._tops) > self._main_runs or self._initial_rows == 0
        coalesce = (
            tail is not None
            and len(tail) == 1
            and tail.child(0) is None
            and tail.cut_lo[0] == -_INF
            and (appended or self._unclassified)
        )
        # A still-virgin tail *insert run* and the fresh batch form one
        # contiguous coarse region; treat them as a single run for the
        # size check so a stream of small batches can still earn a bulk
        # load.  The main hierarchy is excluded even while virgin: bulk
        # loading governs appended runs only — eagerly sorting initial
        # rows no query asked about would forfeit query-driven building.
        tail_is_insert_run = coalesce and appended
        run_begin = int(tail.begin[0]) if tail_is_insert_run else begin
        if end - run_begin >= self._config.threshold(0):
            # Large run: STR bulk load it into an already-refined slice
            # hierarchy instead of leaving a coarse run for queries to
            # crack from scratch.
            if tail_is_insert_run:
                self._tops.pop()
                margin = np.maximum(margin, self._margins.pop())
            self._tops.append(
                self._str_slices(0, run_begin, end, *self._open_box())
            )
            self._margins.append(margin)
        elif coalesce:
            # The previous run is still one uncracked slice holding the
            # whole key range: coalesce into it (union the recorded MBB
            # over the batch, then re-check the threshold) instead of
            # growing the forest — consecutive insert batches pile into a
            # single coarse run until a query cracks it.
            tail.end[0] = end
            tail.mbb_lo[0] = np.minimum(tail.mbb_lo[0], lo.min(axis=0))
            tail.mbb_hi[0] = np.maximum(tail.mbb_hi[0], hi.max(axis=0))
            tail.final[0] = False
            tail.finalize(self._store, self._config.threshold(0))
            self._margins[-1] = np.maximum(self._margins[-1], margin)
        else:
            self._tops.append(self._coarse_run(begin, end))
            self._margins.append(margin)
        if len(self._tops) - self._main_runs > self._max_runs:
            self._collapse_runs()
        self.stats.merges += 1

    def _open_box(self) -> tuple[np.ndarray, np.ndarray]:
        """The recorded MBB of a slice nothing is known about yet."""
        inf = np.full(self._store.ndim, _INF, dtype=np.float64)
        return -inf, inf

    def _coarse_run(self, begin: int, end: int) -> SliceList:
        """An unrefined run: one top-level slice with a fully open MBB."""
        run = SliceList(0, [-_INF], [begin], [end], *self._open_box())
        run.finalize(self._store, self._config.threshold(0))
        return run

    def _str_slices(
        self,
        level: int,
        begin: int,
        end: int,
        parent_lo: np.ndarray,
        parent_hi: np.ndarray,
    ) -> SliceList:
        """STR bulk load rows ``[begin, end)``: one sibling run plus children.

        Sort the range on the level's lower-corner key, cut it into
        slabs of at most the level threshold, recurse on the next dimension
        inside each slab: the hierarchy the incremental path would converge
        to if queries covered the run, built eagerly for ``d`` sorts over
        it.  Slab boundaries land only between *distinct* keys (ties push a
        boundary outward), so every cut bound satisfies the strict sibling
        invariants; a slab stretched past the threshold by duplicate keys
        stays non-final and is refined — or passed through, its keys being
        indistinguishable — by later queries.
        """
        store = self._store
        order = np.argsort(store.lo[begin:end, level], kind="stable")
        store.apply_order_range(begin, end, order)
        self.stats.rows_reorganized += end - begin
        # Read after the permutation: the range is now key-sorted.
        keys = store.lo[begin:end, level]
        tau = self._config.threshold(level)
        pieces: list[Piece] = []
        pos = begin
        while pos < end:
            nxt = min(pos + tau, end)
            if nxt < end and keys[nxt - begin] == keys[nxt - begin - 1]:
                tail = keys[pos - begin :]
                bound = keys[nxt - begin]
                first = pos + int(np.searchsorted(tail, bound, side="left"))
                if first > pos:
                    nxt = first
                else:
                    nxt = pos + int(np.searchsorted(tail, bound, side="right"))
            cut_lo = -_INF if pos == begin else float(keys[pos - begin])
            dim_lo = float(store.lo[pos:nxt, level].min())
            dim_hi = float(store.hi[pos:nxt, level].max())
            pieces.append((cut_lo, pos, nxt, dim_lo, dim_hi))
            pos = nxt
        run = SliceList.from_pieces(level, pieces, parent_lo, parent_hi)
        if level + 1 < self._config.ndim:
            # Children inherit the slab's still open-ended box, so they are
            # built (permuting rows inside their slab only) before the
            # slabs' own exact boxes are computed.
            run.children = [
                self._str_slices(level + 1, b, e, run.mbb_lo[i], run.mbb_hi[i])
                for i, (_, b, e, _, _) in enumerate(pieces)
            ]
        run.finalize(store, tau)
        return run

    def _collapse_runs(self) -> None:
        """Defragment: fold every appended run back into one coarse run.

        Appended runs occupy contiguous tail rows, so a single open
        top-level slice over their union is always structurally valid;
        the refinement they had accumulated is discarded and re-earned by
        the queries that still need it.  This bounds the per-query forest
        walk at ``max_runs + 1`` MBB tests plus the main hierarchy.
        """
        main = self._main_runs
        begin, end = int(self._tops[main].begin[0]), int(self._tops[-1].end[-1])
        margin = np.max(self._margins[main:], axis=0)
        del self._tops[main:], self._margins[main:]
        self._tops.append(self._coarse_run(begin, end))
        self._margins.append(margin)

    # ------------------------------------------------------------------
    # Compaction: slice-forest defragmentation
    # ------------------------------------------------------------------
    def _on_compaction(self, remap: np.ndarray) -> None:
        """Defragment the slice forest after the store dropped dead rows.

        Compaction is stable, so the new position of any range boundary
        ``b`` is the number of surviving rows in ``[0, b)``; every
        list's ``begin``/``end`` columns remap through that prefix sum
        and siblings stay contiguous by construction.  Slices left empty
        are dropped (the paper's s23 rule, applied at maintenance time),
        adjacent survivors whose remains now fit one slice are merged
        back together, and every slice meeting its threshold is
        finalized with an exact MBB recomputed from the surviving rows —
        so post-compaction queries stop visiting dead space *and* stop
        walking fragments deletes hollowed out.
        """
        pos = np.concatenate(([0], np.cumsum(remap >= 0)))
        alive = [self._remap_list(top, pos) is not None for top in self._tops]
        self._tops = [top for top, keep in zip(self._tops, alive) if keep]
        self._margins = [m for m, keep in zip(self._margins, alive) if keep]
        self._main_runs = max(1, sum(alive[: self._main_runs]))
        # Size of the surviving main hierarchy; 0 hands "first run may
        # bulk-load" semantics over when the initial rows all died.
        self._initial_rows = int(pos[self._initial_rows])

    def _remap_list(self, lst: SliceList, pos: np.ndarray) -> SliceList | None:
        """Remap one sibling list in place; None when nothing survives.

        Adjacent *childless* survivors merge greedily while they fit one
        slice, which keeps the sibling walk proportional to the live data,
        not to the history of cracks; a merge keeps the left piece's row
        (its cut bound lies below every absorbed key) and extends its
        ``end``.  Slices with materialized children never merge: dropping
        a refined subtree would hand its cracking cost back to the next
        queries.  The closing ``finalize`` recomputes boxes from live rows
        only, so boxes that existed solely in tombstones stop inflating
        slice bounds (and every ancestor test a query pays).
        """
        lst.begin, lst.end = pos[lst.begin], pos[lst.end]
        alive = (lst.begin < lst.end).nonzero()[0]
        if alive.size == 0:
            return None  # fully tombstoned: nothing left to cover
        lst.select(alive)
        lst.children = [
            None if child is None else self._remap_list(child, pos)
            for child in lst.children
        ]
        tau = self._config.threshold(lst.level)
        heads: list[int] = []
        room = -1  # rows the open merge group can still absorb
        for i, size in enumerate((lst.end - lst.begin).tolist()):
            childless = lst.child(i) is None
            if childless and size <= room:
                room -= size
            else:
                heads.append(i)
                room = tau - size if childless else -1
        if len(heads) < len(lst):
            run_end = lst.end[-1]
            lst.select(np.array(heads, dtype=np.int64))
            lst.end = np.append(lst.begin[1:], run_end)
        lst.finalize(self._store, tau, refresh=True)
        return lst

    # ------------------------------------------------------------------
    # Algorithm 1: query processing
    # ------------------------------------------------------------------
    def _leaves(self, query: Query) -> list[int]:
        """Walk (and refine) the forest for one query.

        Returns the collected bottom-level slices as a flat
        ``[begin, end, begin, end, ...]`` list, depth-first left to right.
        Their members are the candidate rows; the exact predicate test
        happens later in the shared refine kernel (for a batch, after
        *every* query's walk).  That is safe: a collected leaf and its
        ancestors were refined when the walk descended through them,
        refined slices are never cracked again, and cracking any other
        slice only permutes rows inside its own disjoint range.
        """
        if self._unclassified:
            self._classify(query)
        leaves: list[int] = []
        for top, margin in zip(self._tops, self._margins):
            self._walk(top, query, self._extended_bounds(query, margin), leaves)
        return leaves

    def _classify(self, query: Query) -> None:
        """Split the virgin main run into extent classes, for ``query``.

        One store-wide margin (Section 5.2) widens windows by ~1,000 on the
        paper's data (99 % of sides <= 10, 1 % up to 1,000) for rows that
        need 10.  So a row is *large* when its largest side exceeds
        ``_LARGE_RATIO`` x the median largest side (sampled every
        ``_CLASS_STRIDE``-th row: 0.2 ms, not 10 ms, at 1M rows), and each
        class is a run whose margin is its own rows' maximum extent.  One
        size population stays under 2x its median (10 against 8.2 there),
        a large row is ~100x it: margins (10, 10, 10) and ~1,000.  The first
        query pays, its small-run frame starting in the stable class order.
        """
        self._unclassified = False
        if not self._initial_rows:
            return  # every initial row was compacted away first
        store, end = self._store, int(self._tops[0].end[0])  # the main run starts at row 0
        lo, hi = store.lo[:end], store.hi[:end]
        bound = _LARGE_RATIO * np.median((hi[::_CLASS_STRIDE] - lo[::_CLASS_STRIDE]).max(axis=1))
        large = np.zeros(end, dtype=np.bool_)
        for dim in range(store.ndim):
            large |= hi[:, dim] - lo[:, dim] > bound
        split = end - int(np.count_nonzero(large))
        if split == end:
            return
        margins = np.zeros((2, store.ndim), dtype=np.float64)
        for dim in range(store.ndim):
            side = hi[:, dim] - lo[:, dim]
            margins[:, dim] = [side.max(where=rows, initial=0.0) for rows in (~large, large)]
        order = np.concatenate((np.flatnonzero(~large), np.flatnonzero(large)))
        frame = Frame(store, 0, end, 0, order)
        del large, side, order  # the frame's commit frees the order
        run = SliceList(0, [-_INF], [0], [split], *self._open_box())
        if not self._refine(run, 0, self._extended_bounds(query, margins[0]), frame):
            frame.commit()
        run.finalize(store, self._config.threshold(0))
        self._tops[0:1] = [run, self._coarse_run(split, end)]
        self._margins[0:1], self._main_runs = list(margins), 2

    def _walk(
        self,
        lst: SliceList,
        query: Query,
        keys: tuple[list[float], ...],
        leaves: list[int],
    ) -> None:
        """Algorithm 1 over one sibling list: probe once, Python per hit."""
        dim = lst.level
        bottom = dim == self._config.ndim - 1
        key_lo, key_hi = keys[0][dim], keys[2][dim]
        start, stop, hits = lst.probe(key_lo, key_hi, query.lo, query.hi)
        visited = stop - start
        n = 0
        while n < len(hits):
            h = hits[n]
            n += 1
            if self._refine(lst, h, keys):
                # The slice was replaced by its sub-slices: re-enter at the
                # same position, testing each piece once.  Pieces meet the
                # threshold or miss the query, so none is refined again;
                # the siblings behind them are re-tested but not re-counted.
                _, new_stop, hits = lst.probe(key_lo, key_hi, query.lo, query.hi, h)
                visited += new_stop - stop + 1
                stop, n = new_stop, 0
            elif bottom:
                leaves.append(int(lst.begin[h]))
                leaves.append(int(lst.end[h]))
            else:
                child = lst.children[h]
                if child is None:
                    child = self._default_child(lst, h)
                self._walk(child, query, keys, leaves)
        self.stats.nodes_visited += visited

    def _default_child(self, lst: SliceList, h: int) -> SliceList:
        """Lazy default child (Line 15) of slice ``h``: same rows, next level."""
        child = lst.children[h] = SliceList(
            lst.level + 1, [-_INF], [lst.begin[h]], [lst.end[h]], lst.mbb_lo[h], lst.mbb_hi[h]
        )
        child.finalize(self._store, self._config.threshold(lst.level + 1))
        return child

    # ------------------------------------------------------------------
    # Algorithm 2: refinement
    # ------------------------------------------------------------------
    def _refine(
        self,
        lst: SliceList,
        h: int,
        keys: tuple[list[float], ...],
        frame: Frame | None = None,
    ) -> bool:
        """Refine slice ``h`` of ``lst`` against a query's ``keys``.

        Cracks the slice's key :class:`~repro.core.cracking.Frame`, moves
        the store's rows once, and splices the replacement sibling run
        (>= 1 slices, query-overlapping ones guaranteed at/below
        threshold) over the slice; False means "already refined" — no
        reorganization possible/needed, ``lst`` unchanged.  A ``frame``
        handed in (:meth:`_classify`'s) is committed only on True.
        """
        dim = lst.level
        tau = self._config.threshold(dim)
        begin, size = int(lst.begin[h]), int(lst.end[h] - lst.begin[h])
        if lst.final[h] or size <= tau:
            return False
        if frame is None:
            frame = Frame(self._store, begin, begin + size, dim)
        kmin, kmax, dim_hi = range_dim_stats(frame, 0, size)
        # Tighten the recorded open-ended bounds while we have them.
        lst.mbb_lo[h, dim] = kmin
        lst.mbb_hi[h, dim] = dim_hi
        if kmin == kmax:
            # Every key identical: this dimension cannot discriminate.
            # Treat as refined; deeper levels take over.
            return False
        # Upper crack bound is exclusive ("keys < b"), so nudge one ulp up
        # to keep keys == the window's upper bound inside the middle slice.
        # The extended lower bound never exceeds the window's, so the two
        # bounds are strictly increasing.
        upper = float(np.nextafter(keys[2][dim], _INF))
        bounds = [b for b in (keys[0][dim], upper) if kmin < b <= kmax]
        edges = [0, size]
        if bounds:
            # Three-way (both bounds interior) or two-way slicing;
            # otherwise the query covers the slice's key range and only
            # artificial slicing applies.
            edges[1:1] = crack(frame, 0, size, bounds)
            self.stats.cracks += 1
            self.stats.rows_reorganized += size
        pieces: list[Piece] = []
        cut_los = [float(lst.cut_lo[h]), *bounds]
        window = keys[1][dim], keys[2][dim]
        for cut_lo, a, b in zip(cut_los, edges, edges[1:]):
            self._emit_refined(frame, a, b, cut_lo, window, tau, pieces)
        # Before finalize, which reduces over store rows; a frame that only
        # emitted has no permutation and leaves the store alone.
        frame.commit()
        refined = SliceList.from_pieces(dim, pieces, lst.mbb_lo[h], lst.mbb_hi[h])
        refined.finalize(self._store, tau)
        lst.replace(h, refined)
        return True

    def _emit_refined(
        self,
        frame: Frame,
        a: int,
        b: int,
        cut_lo: float,
        window: tuple[float, float],
        tau: int,
        out: list[Piece],
    ) -> None:
        """Recursive artificial refinement (Algorithm 2, Lines 8–13).

        Emits frame positions ``[a, b)`` as one piece when it meets the
        threshold, lies outside the query ``window`` on this dimension, or
        cannot be split by value; otherwise two-way cracks it at the
        key-range midpoint and recurses, appending results left-to-right
        so the sibling run stays sorted.
        """
        if a == b:
            return  # drop empty slices (paper's s23)
        kmin, kmax, dim_hi = range_dim_stats(frame, a, b)
        overlaps = dim_hi >= window[0] and kmin <= window[1]
        if b - a <= tau or not overlaps or kmin == kmax:
            out.append((cut_lo, frame.begin + a, frame.begin + b, kmin, dim_hi))
            return
        mid = (kmin + kmax) / 2.0
        if not np.isfinite(mid):
            # Two keys near the float maximum overflow their sum; halving
            # first cannot, and ordinary keys never take this branch.
            mid = kmin / 2.0 + kmax / 2.0
        # The midpoint of adjacent floats rounds to kmin; cracking needs a
        # cut with a non-empty left side.
        if mid <= kmin:
            mid = float(np.nextafter(kmin, kmax))
        (split,) = crack(frame, a, b, [mid])
        self.stats.cracks += 1
        self.stats.rows_reorganized += b - a
        self._emit_refined(frame, a, split, cut_lo, window, tau, out)
        self._emit_refined(frame, split, b, mid, window, tau, out)

    # ------------------------------------------------------------------
    # Introspection & verification
    # ------------------------------------------------------------------
    def format_structure(self, max_slices_per_level: int = 12) -> str:
        """ASCII rendering of the slice hierarchy (Figure 4's bottom rows).

        Each line shows one slice: level indentation, data-array range,
        cut bound, object count, and refinement state.  Long sibling runs
        are elided after ``max_slices_per_level`` entries.
        """
        dims = "xyzwvu"
        lines: list[str] = []

        def walk(lst: SliceList, depth: int) -> None:
            dim = dims[lst.level] if lst.level < len(dims) else str(lst.level)
            for i in range(len(lst)):
                if i == max_slices_per_level:
                    lines.append("  " * depth + f"... {len(lst) - i} more")
                    break
                begin, end = lst.begin[i], lst.end[i]
                state = "final" if lst.final[i] else "coarse"
                lines.append(
                    "  " * depth
                    + f"{dim}-slice rows[{begin}:{end}) "
                    + f"cut>={lst.cut_lo[i]:g} |{end - begin}| {state}"
                )
                child = lst.child(i)
                if child is not None:
                    walk(child, depth + 1)

        for run_idx, top in enumerate(self._tops):
            if run_idx >= self._main_runs:
                lines.append(f"-- appended run {run_idx - self._main_runs + 1}")
            walk(top, 0)
        if len(self._buffer):
            lines.append(f"-- update buffer: {len(self._buffer)} pending rows")
        return "\n".join(lines)

    def _lists(self) -> Iterator[SliceList]:
        """Every sibling list; O(lists): bottom lists keep no child column."""
        stack: list[SliceList] = list(self._tops)
        while stack:
            lst = stack.pop()
            yield lst
            stack.extend(c for c in lst.children if c is not None)

    def slice_counts(self) -> list[int]:
        """Number of materialized slices per level (index growth measure)."""
        counts = [0] * self._config.ndim
        for lst in self._lists():
            counts[lst.level] += len(lst)
        return counts

    def memory_bytes(self) -> int:
        """Footprint of the slice forest's columns plus the update buffer."""
        return self._buffer.memory_bytes() + sum(
            lst.memory_bytes() for lst in self._lists()
        )

    def validate_structure(self) -> None:
        """Assert every structural invariant; raises AssertionError on breakage.

        Used by the test suite (and available for debugging) to check, one
        vectorized pass per sibling list: the columns agree in length,
        shape and dtype; sibling ranges tile the parent contiguously in
        order; cut bounds strictly increase and bracket the member keys;
        recorded MBB rows cover members (finite for final slices);
        thresholds hold for final slices; levels are consistent; the
        forest's runs tile the whole store, the extent classes covering
        every initial row, and each run's margin covers its rows' extent.
        Tombstoned rows participate in every structural check (they stay
        physically in place), so the invariants are unaffected by deletes.
        """
        d = self._config.ndim
        store = self._store

        def check_list(lst: SliceList, begin: int, end: int) -> None:
            assert lst.level < d, f"level {lst.level} out of range"
            n = len(lst)
            assert n > 0, "empty sibling list"
            for name, dtype in COLUMN_DTYPES.items():
                column = getattr(lst, name)
                shape = (n, d) if name.startswith("mbb") else (n,)
                assert column.dtype == dtype and column.shape == shape, (
                    f"column {name} is {column.dtype}{column.shape}, "
                    f"expected {np.dtype(dtype)}{shape}"
                )
            assert len(lst.children) == (n if lst.level + 1 < d else 0), (
                "child column out of step with the slice columns"
            )
            assert (
                lst.begin[0] == begin
                and lst.end[-1] == end
                and np.array_equal(lst.begin[1:], lst.end[:-1])
            ), f"siblings do not tile the parent range [{begin}, {end})"
            sizes = lst.end - lst.begin
            assert np.all(sizes > 0), "empty slice materialized"
            assert np.all(np.diff(lst.cut_lo) > 0), "cut bounds not increasing"
            keys = store.lo[begin:end, lst.level]
            next_cut = np.append(lst.cut_lo[1:], _INF)
            assert np.all(keys >= np.repeat(lst.cut_lo, sizes)) and np.all(
                keys < np.repeat(next_cut, sizes)
            ), "key outside its slice's cut interval"
            assert np.all(
                store.lo[begin:end] >= np.repeat(lst.mbb_lo, sizes, axis=0) - 1e-9
            ) and np.all(
                store.hi[begin:end] <= np.repeat(lst.mbb_hi, sizes, axis=0) + 1e-9
            ), "recorded MBB does not cover slice members"
            tau = self._config.threshold(lst.level)
            assert np.all(sizes[lst.final] <= tau), (
                f"final slice exceeds threshold {tau}"
            )
            assert np.all(np.isfinite(lst.mbb_lo[lst.final])) and np.all(
                np.isfinite(lst.mbb_hi[lst.final])
            ), "final slice MBB not fully computed"
            for i, child in enumerate(lst.children):
                if child is not None:
                    assert child.level == lst.level + 1, "child level skew"
                    check_list(child, int(lst.begin[i]), int(lst.end[i]))

        assert len(self._margins) == len(self._tops), "one margin per top-level list"
        cursor = 0
        for top, margin in zip(self._tops, self._margins):
            run_end = int(top.end[-1])
            check_list(top, cursor, run_end)
            extent = (store.hi[cursor:run_end] - store.lo[cursor:run_end]).max(axis=0)
            assert np.all(extent <= margin), f"margin below the extent of [{cursor}, {run_end})"
            cursor = run_end
        assert cursor == store.n, "slice forest does not cover the store"
        main_end = self._tops[self._main_runs - 1].end[-1] if self._tops else 0
        assert main_end >= self._initial_rows, "extent classes miss initial rows"
