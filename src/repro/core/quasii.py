"""QUASII: the QUery-Aware Spatial Incremental Index (Sections 4 and 5).

The index is built *as a side effect of query execution*.  Each query:

1. walks the d-level slice hierarchy depth-first (Algorithm 1), binary
   searching each sibling list for the first candidate slice;
2. *refines* every candidate slice that still exceeds its level threshold
   (Algorithm 2) by cracking the data array on the query's boundaries —
   three-way, two-way, or artificial (midpoint) slicing — with the query
   **extended by the maximum object extent** on the lower side so that
   representing objects by their lower coordinate never loses results;
3. collects fully refined bottom-level slices as candidate rows; the
   shared refine kernel (:mod:`repro.index.base`) then tests them
   against the raw window under the query's predicate and result mode.

The hierarchy converges toward an STR-like tiling of exactly the regions
queries touch; untouched regions stay coarse (a single unsorted run of the
data array).

Updates (beyond the paper — Section 7 leaves them as future work):
inserts are staged in an :class:`~repro.updates.buffer.UpdateBuffer` and
merged lazily: the next query drains the buffer into the store as an
appended run headed by a fresh coarse top-level slice, which the normal
Algorithm 1/2 machinery then cracks exactly like any unrefined region.
The index therefore maintains a *forest* of top-level slice lists — the
original hierarchy plus one per absorbed run — each converging
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
        # Query extension margin: per-dimension maximum object extent
        # (Stefanakis et al.); refreshed whenever an absorbed insert run
        # contains a larger object (growing it is conservative-safe).
        self._max_extent = store.max_extent.copy()
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
        """Number of top-level slice lists (1 + absorbed insert runs)."""
        return len(self._tops)

    def _extended_bounds(self, query: Query) -> tuple[list[float], ...]:
        """Per-dimension key range of ``query``, extended on the lower side.

        An object intersecting the window can have its lower-corner key
        below the window by at most the maximum object extent, never
        above it — the query-extension technique of Section 5.2.
        Computed once per query, as ``(key lo, window lo, window hi)``
        lists (the key range ends at the window's upper bound); the walk
        and Algorithm 2 index them by level.
        """
        return (
            (query.lo - self._max_extent).tolist(),
            query.lo.tolist(),
            query.hi.tolist(),
        )

    def build(self) -> None:
        """No-op: QUASII has no pre-processing step (that is the point)."""
        self._built = True

    def _execute_batch(self, queries: list[Query]) -> list[QueryResult]:
        """Crack per query, refine once per batch (``execute`` is a batch of one).

        The update buffer is drained at most once per batch, and the merge
        is charged to the index, not to any query's stats.  Each query
        then walks — and refines — the forest in submission order
        (cracking is inherently per-query, that is the point of the
        index) but only *collects* its leaves; the candidate rows of the
        whole batch are gathered in one pass and handed to the stacked
        refine kernel.  :meth:`_leaves` says why reading them late is safe.
        """
        t0 = perf_counter()
        if len(self._buffer):
            self._absorb_pending()
        stats = self.stats
        leaves: list[int] = []
        offsets = [0]  # candidate rows up to and including each query
        per_stats: list[IndexStats] = []
        for query in queries:
            before = (stats.cracks, stats.rows_reorganized, stats.nodes_visited)
            found = self._leaves(query)
            leaves += found
            tested = sum(found[1::2]) - sum(found[0::2])
            offsets.append(offsets[-1] + tested)
            per_stats.append(
                IndexStats(
                    objects_tested=tested,
                    cracks=stats.cracks - before[0],
                    rows_reorganized=stats.rows_reorganized - before[1],
                    nodes_visited=stats.nodes_visited - before[2],
                )
            )
        stats.objects_tested += offsets[-1]
        rows = gather_ranges(leaves[0::2], leaves[1::2])
        rows_list = [rows[a:b] for a, b in zip(offsets, offsets[1:])]
        payloads = self._refine_stacked(queries, rows_list)
        return self._wrap_batch(queries, payloads, per_stats, perf_counter() - t0)

    def _plan(self, query: Query) -> QueryPlan:
        """Walk the current forest without refining or merging anything.

        Counts the slices the walk would test (the same
        :meth:`SliceList.probe` the walk runs) and the rows of every
        overlapping deepest-materialized slice; pending buffered rows
        are added whole (execution would absorb them into a coarse run
        first).  ``exact=False`` — execution cracks oversized slices,
        so the real scan is typically narrower.
        """
        nodes = 0
        candidates = len(self._buffer)
        key_lo, _, key_hi = self._extended_bounds(query)
        stack: list[SliceList] = list(self._tops)
        while stack:
            lst = stack.pop()
            i, j, hits = lst.probe(key_lo[lst.level], key_hi[lst.level], query.lo, query.hi)
            nodes += j - i
            for h in hits:
                child = lst.child(h)
                if child is None:
                    candidates += int(lst.end[h] - lst.begin[h])
                else:
                    stack.append(child)
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=nodes,
            candidates=candidates,
            exact=False,
        )

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
        self._max_extent = np.maximum(self._max_extent, self._store.max_extent)
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
        coalesce = (
            tail is not None
            and len(tail) == 1
            and tail.child(0) is None
            and tail.cut_lo[0] == -_INF
        )
        # A still-virgin tail *insert run* and the fresh batch form one
        # contiguous coarse region; treat them as a single run for the
        # size check so a stream of small batches can still earn a bulk
        # load.  The main hierarchy is excluded even while virgin: bulk
        # loading governs appended runs only — eagerly sorting initial
        # rows no query asked about would forfeit query-driven building.
        tail_is_insert_run = coalesce and (
            len(self._tops) > 1 or self._initial_rows == 0
        )
        run_begin = int(tail.begin[0]) if tail_is_insert_run else begin
        if end - run_begin >= self._config.threshold(0):
            # Large run: STR bulk load it into an already-refined slice
            # hierarchy instead of leaving a coarse run for queries to
            # crack from scratch.
            if tail_is_insert_run:
                self._tops.pop()
            self._tops.append(
                self._str_slices(0, run_begin, end, *self._open_box())
            )
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
        else:
            self._tops.append(self._coarse_run(begin, end))
        if len(self._tops) - 1 > self._max_runs:
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
        begin = int(self._tops[1].begin[0])
        end = int(self._tops[-1].end[-1])
        del self._tops[1:]
        self._tops.append(self._coarse_run(begin, end))

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
        self._tops = [
            top for top in self._tops if self._remap_list(top, pos) is not None
        ]
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
        keys = self._extended_bounds(query)
        leaves: list[int] = []
        for top in self._tops:
            self._walk(top, query, keys, leaves)
        return leaves

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
                    # Lazy default child (Line 15): same rows, next level.
                    child = lst.children[h] = SliceList(
                        dim + 1, [-_INF], [lst.begin[h]], [lst.end[h]],
                        lst.mbb_lo[h], lst.mbb_hi[h],
                    )
                    child.finalize(self._store, self._config.threshold(dim + 1))
                self._walk(child, query, keys, leaves)
        self.stats.nodes_visited += visited

    # ------------------------------------------------------------------
    # Algorithm 2: refinement
    # ------------------------------------------------------------------
    def _refine(
        self,
        lst: SliceList,
        h: int,
        keys: tuple[list[float], ...],
    ) -> bool:
        """Refine slice ``h`` of ``lst`` against a query's ``keys``.

        Cracks the slice's key :class:`~repro.core.cracking.Frame`, moves
        the store's rows once, and splices the replacement sibling run
        (>= 1 slices, query-overlapping ones guaranteed at/below
        threshold) over the slice; False means "already refined" — no
        reorganization possible/needed, ``lst`` unchanged.
        """
        dim = lst.level
        tau = self._config.threshold(dim)
        begin, size = int(lst.begin[h]), int(lst.end[h] - lst.begin[h])
        if lst.final[h] or size <= tau:
            return False
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
            for shown, s in enumerate(lst):
                if shown == max_slices_per_level:
                    lines.append("  " * depth + f"... {len(lst) - shown} more")
                    break
                state = "final" if s.final else "coarse"
                lines.append(
                    "  " * depth
                    + f"{dim}-slice rows[{s.begin}:{s.end}) "
                    + f"cut>={s.cut_lo:g} |{s.size}| {state}"
                )
                if s.children is not None:
                    walk(s.children, depth + 1)

        for run_idx, top in enumerate(self._tops):
            if run_idx:
                lines.append(f"-- appended run {run_idx}")
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
        forest's runs tile the whole store.  Tombstoned rows participate
        in every structural check (they stay physically in place), so the
        invariants are unaffected by deletes.
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

        cursor = 0
        for top in self._tops:
            run_end = int(top.end[-1])
            check_list(top, cursor, run_end)
            cursor = run_end
        assert cursor == store.n, "slice forest does not cover the store"
